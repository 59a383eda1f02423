"""Two-time-scale oscillatory systems with an attracting fast manifold.

The slow state x and fast state y evolve as

    dx/dt = sqrt(w) f1(x, y, w t) + f2(x, y, w t)
    dy/dt = w A (y - phi0(x)) + sqrt(w) g1(x, y, w t) + g2(x, y, w t)

with all oscillatory fields T-periodic in the phase tau = w t, A Hurwitz,
and phi0 the quasi-steady map the fast state tracks.  The standing
assumptions (periodicity, zero phase-average of the sqrt(w)-scale terms,
Hurwitz A) are checked numerically, not taken on faith.  Every phase
field is evaluated on a vector of phases, and the callables a slow-state
finite difference reads also on a block of states.  grid_terms is the one
reader of the four fields (or of terms, which replaces them), and
phase_values the one shape check on what any phase callable returns.  A
flown spec supplies this right-hand side whole (OscillatorySystemSpec.full);
a spec of fields alone is averaged, not flown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DimensionError
from .numkit import jacobian_fd

__all__ = [
    "OscillatorySystemSpec",
    "AssumptionReport",
    "ShiftedState",
    "assemble_full_field",
    "frozen_layer_field",
    "check_assumption_A",
    "phase_values",
    "grid_terms",
    "to_shifted",
    "from_shifted",
]

PhaseField = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
PhaseTerms = Callable[
    [np.ndarray, np.ndarray, np.ndarray, bool], tuple[np.ndarray, np.ndarray | None]
]
FullField = Callable[[float], Callable[[float, list], list]]


@dataclass
class OscillatorySystemSpec:
    """Problem data for one two-time-scale system.

    f1, f2, g1, g2 take (x, y, taus) with taus a vector of K fast phases.
    dphi0, df1_dy and dg1_dy are optional analytic Jacobians; central
    differences are used when they are absent.

    Phase-field contract: f1, f2, g1, g2, df1_dy and dg1_dy return their
    values at the K phases stacked along a new first axis, (K, dim) for a
    field ((n,) or (m,) per phase) and (K, rows, cols) for a Jacobian.  A
    field that ignores the phase still returns the stacked shape, e.g.
    np.zeros(np.shape(taus) + (dim,)); phase_values checks every read.

    Block contract: phi0, dphi0 and the sqrt(w)-scale fields F1 = (f1, g1)
    (read through terms with order_one=False when the spec supplies terms)
    also take a block of B states, x of shape (B, n) and y of shape (B, m),
    one state per row, and put B in front of the single-state result:
    phi0 gives (B, m), dphi0 (B, m, n) and a phase field (B, K, dim).  One
    formula serves both shapes through ... indexing (x[..., 0, None] * a
    phase vector, np.shape(x)[:-1] + (K, dim)), and row b of a block must
    equal the call on state b bit for bit.  A central difference
    (jacobian_fd) evaluates all its perturbed states in one such call.
    f2, g2, F2, df1_dy and dg1_dy take one state.

    terms is optional: one callable (x, y, taus, order_one) -> (F1, F2)
    that returns all four phase fields at once, F1 = (f1, g1) the
    sqrt(w)-scale part and F2 = (f2, g2) the order-one part, each of shape
    (K, n+m), stacked along the last axis.  Its values must equal the four
    fields'.  order_one=False means the caller uses F1 alone (the first
    corrector needs nothing else), and terms may then return None for F2.
    A spec supplies terms when its fields share work (a trig value, a
    sensor reading, a gradient), so that the full right-hand side and
    every averaging grid make one spec call instead of up to four.
    grid_terms is the one reader of the phase fields: with terms, the four
    fields are never called; without it, grid_terms calls and stacks them,
    read from the spec at each call, so a field reassigned after
    construction is used.

    full is optional: full(omega) -> rhs, the whole right-hand side at
    frequency omega, mapping (t, packed state as a list of n + m floats)
    to the packed derivative as such a list; a spec without it cannot be
    flown.  Its values must equal the four fields' assembly,
    sqrt(w) f1 + f2 and (sqrt(w) g1 + w A (y - phi0)) + g2, unless it adds
    terms beyond them, such as O(1/sqrt(w)) remainders.
    """

    n: int
    m: int
    T: float
    A: np.ndarray
    phi0: Callable[[np.ndarray], np.ndarray]
    f1: PhaseField
    f2: PhaseField
    g1: PhaseField
    g2: PhaseField
    dphi0: Callable[[np.ndarray], np.ndarray] | None = None
    df1_dy: PhaseField | None = None
    dg1_dy: PhaseField | None = None
    terms: PhaseTerms | None = None
    full: FullField | None = None

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ConfigurationError(f"state dimensions must be >= 1, got n={self.n}, m={self.m}")
        if not (np.isfinite(self.T) and self.T > 0.0):
            raise ConfigurationError(f"period T must be positive, got {self.T}")
        self.A = np.asarray(self.A, dtype=float)
        if self.A.shape != (self.m, self.m):
            raise DimensionError(f"A must have shape ({self.m}, {self.m}), got {self.A.shape}")
        if not np.all(np.isfinite(self.A)):
            raise ConfigurationError("A contains non-finite entries")

    def pack(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != (self.n,) or y.shape != (self.m,):
            raise DimensionError(
                f"expected x shape ({self.n},) and y shape ({self.m},), "
                f"got {x.shape} and {y.shape}"
            )
        return np.concatenate([x, y])

    def unpack(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n + self.m,):
            raise DimensionError(f"state must have shape ({self.n + self.m},), got {v.shape}")
        return v[: self.n], v[self.n :]

    def phi0_jacobian(self, x: np.ndarray) -> np.ndarray:
        """d phi0 / dx, (m, n) at a state and (B, m, n) on a block of B:
        analytic when supplied, else central differences, one phi0 call
        per state."""
        if self.dphi0 is not None:
            return np.asarray(self.dphi0(x), dtype=float)
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            return np.stack([jacobian_fd(self.phi0, w) for w in x])
        return jacobian_fd(self.phi0, x)


def _phase_grid(T: float, n_panels: int) -> np.ndarray:
    """The n_panels uniform phases k T / n_panels, k < n_panels: every phase grid."""
    if n_panels < 2 or n_panels % 2 != 0:
        raise ConfigurationError(f"n_panels must be even and >= 2, got {n_panels}")
    if not (np.isfinite(T) and T > 0.0):
        raise ConfigurationError(f"period T must be positive, got {T}")
    if n_panels > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"{n_panels} phases of 8 bytes exceed the address space")
    return (T / n_panels) * np.arange(n_panels)


def phase_values(vals, x, taus: np.ndarray, shape: tuple) -> np.ndarray:
    """What a phase callable returned at (x, taus), as floats, or
    DimensionError unless its shape is shape (the value at one phase)
    behind the phase count and, on a block of states, the block size."""
    vals = np.asarray(vals, dtype=float)
    expected = np.shape(x)[:-1] + (taus.shape[0],) + shape
    if vals.shape != expected:
        raise DimensionError(f"phase callable returned shape {vals.shape}, expected {expected}")
    return vals


def grid_terms(spec: OscillatorySystemSpec, x, y, taus: np.ndarray, order_one: bool = True):
    """(F1, F2) = ((f1, g1), (f2, g2)) over a vector of K phases, shape-checked:
    F1 and, when order_one, F2 of shape (K, n+m); otherwise F2 is None.  F1
    alone may be read on a block of B states, as (B, K, n+m).  One terms call
    when the spec supplies terms; else its fields as it holds them now."""
    if spec.terms is not None:
        F1, F2 = spec.terms(x, y, taus, order_one)
    else:
        F1 = np.concatenate([spec.f1(x, y, taus), spec.g1(x, y, taus)], axis=-1)
        if order_one:
            F2 = np.concatenate([spec.f2(x, y, taus), spec.g2(x, y, taus)], axis=-1)
    shape = (spec.n + spec.m,)
    F1 = phase_values(F1, x, taus, shape)
    return F1, (phase_values(F2, x, taus, shape) if order_one else None)


def assemble_full_field(
    spec: OscillatorySystemSpec, omega: float
) -> Callable[[float, list], list]:
    """Right-hand side of the full system at frequency omega, spec.full(omega):
    (t, packed state as a list of n + m floats) -> the packed derivative
    as such a list, at the fast phase tau = omega * t.  A spec without
    full is refused (ConfigurationError)."""
    if not (np.isfinite(omega) and omega > 0.0):
        raise ConfigurationError(f"omega must be positive and finite, got {omega}")
    if spec.full is None:
        raise ConfigurationError("the spec has no full right-hand side to fly")
    return spec.full(omega)


def frozen_layer_field(
    spec: OscillatorySystemSpec, omega: float, x: np.ndarray
) -> Callable[[float, np.ndarray], np.ndarray]:
    """Boundary-layer flow dy/dt = w A (y - phi0(x)) with x frozen."""
    if not (np.isfinite(omega) and omega > 0.0):
        raise ConfigurationError(f"omega must be positive, got {omega}")
    target = np.asarray(spec.phi0(np.asarray(x, dtype=float)), dtype=float)
    A = spec.A

    def field(t: float, y: np.ndarray) -> np.ndarray:
        return omega * (A @ (y - target))

    return field


@dataclass(frozen=True)
class AssumptionReport:
    """Numeric verdicts for the standing assumptions."""

    hurwitz: bool
    spectral_abscissa: float
    zero_mean: bool
    max_mean_defect: float
    periodic: bool
    max_period_defect: float

    @property
    def ok(self) -> bool:
        return self.hurwitz and self.zero_mean and self.periodic


def check_assumption_A(spec: OscillatorySystemSpec) -> AssumptionReport:
    """Check A Hurwitz, f1/g1 phase averages zero, fields T-periodic.

    The average and periodicity checks sample 8 states (x, y) from the
    box [-2, 2] with seed 12345 and take grid means over 256 uniform
    phases, as AveragedSystem.fbar does; they certify the sampled states
    only, which is the practical reading of the for-all quantifiers.  The
    periodicity gap compares F1 and F2 at every grid phase one period on.
    A phase average passes below 1e-8, a one-period gap below 1e-10.
    """
    eigs = np.linalg.eigvals(spec.A)
    abscissa = float(np.max(eigs.real))
    hurwitz = abscissa < 0.0

    rng = np.random.default_rng(12345)
    taus = _phase_grid(spec.T, 256)
    means, gaps = [], []
    for _ in range(8):
        x = rng.uniform(-2.0, 2.0, spec.n)
        y = rng.uniform(-2.0, 2.0, spec.m)
        F1, F2 = grid_terms(spec, x, y, taus)
        means.append(np.max(np.abs(np.mean(F1, axis=0))))
        L1, L2 = grid_terms(spec, x, y, taus + spec.T)
        gaps += [np.max(np.abs(L1 - F1)), np.max(np.abs(L2 - F2))]
    # np.max, not max: a NaN on any state must reach the verdict
    max_mean = float(np.max(means))
    max_period = float(np.max(gaps))
    return AssumptionReport(
        hurwitz=hurwitz,
        spectral_abscissa=abscissa,
        zero_mean=max_mean < 1e-8,
        max_mean_defect=max_mean,
        periodic=max_period < 1e-10,
        max_period_defect=max_period,
    )


@dataclass(frozen=True)
class ShiftedState:
    """State in the corrected coordinates.

    z is the fast deviation after subtracting the quasi-steady map and
    the first two periodic correctors; tau is the fast phase and
    eps = 1/sqrt(omega) the perturbation scale, meaningful only in the
    high-frequency regime eps <= 1.
    """

    x: np.ndarray
    z: np.ndarray
    tau: float
    eps: float

    def __post_init__(self) -> None:
        if not (0.0 < self.eps <= 1.0):
            raise ConfigurationError(
                f"eps must lie in (0, 1] (omega >= 1), got {self.eps}"
            )


def _corrector_terms(
    spec: OscillatorySystemSpec,
    x: np.ndarray,
    tau: float,
    eps: float,
    phi1: Callable[[np.ndarray, float], np.ndarray] | None,
    phi2: Callable[[np.ndarray, float], np.ndarray] | None,
) -> np.ndarray:
    shift = np.asarray(spec.phi0(x), dtype=float).copy()
    if phi1 is not None:
        shift += eps * np.asarray(phi1(x, tau), dtype=float)
    if phi2 is not None:
        shift += eps * eps * np.asarray(phi2(x, tau), dtype=float)
    return shift


def to_shifted(
    spec: OscillatorySystemSpec,
    x: np.ndarray,
    y: np.ndarray,
    t: float,
    omega: float,
    phi1: Callable[[np.ndarray, float], np.ndarray] | None = None,
    phi2: Callable[[np.ndarray, float], np.ndarray] | None = None,
    t0: float = 0.0,
) -> ShiftedState:
    """Subtract the quasi-steady map and correctors from the fast state."""
    if not (np.isfinite(omega) and omega > 0.0):
        raise ConfigurationError(f"omega must be positive, got {omega}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    eps = 1.0 / float(np.sqrt(omega))
    tau = omega * (t - t0)
    z = y - _corrector_terms(spec, x, tau, eps, phi1, phi2)
    return ShiftedState(x=x.copy(), z=z, tau=float(tau), eps=eps)


def from_shifted(
    spec: OscillatorySystemSpec,
    state: ShiftedState,
    phi1: Callable[[np.ndarray, float], np.ndarray] | None = None,
    phi2: Callable[[np.ndarray, float], np.ndarray] | None = None,
    t0: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Invert to_shifted; returns (x, y, t)."""
    omega = 1.0 / (state.eps * state.eps)
    y = state.z + _corrector_terms(spec, state.x, state.tau, state.eps, phi1, phi2)
    t = t0 + state.tau / omega
    return state.x.copy(), y, t
