"""Oracles that no command runs.

A planar system whose average is produced entirely by the oscillation
bracket, the exact periodic solutions of the two corrector cases in
twoscale.benchmarks, the fourth-order stencil residual that
residual_bvp's spectral derivative replaced, the comprehension RK4
step that rk4_step's generated list steppers replaced, and the numpy
RK4 that stepped array states before integrate_rk4 stepped only lists
of floats, and the generic assembly of a full right-hand side from a
spec's fields, which assemble_full_field made before every flown spec
supplied full.  pytest puts tests/ on the import path, so a test reads
them with ``from oracles import ...``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from twoscale.averaging import CorrectorSolution, values_at
from twoscale.errors import ConfigurationError
from twoscale.numkit import TimeGrid
from twoscale.system import OscillatorySystemSpec, grid_terms, phase_values


@dataclass(frozen=True)
class BracketBenchmark:
    """Planar system whose average comes only from the bracket term.

    f1 = (sqrt(2) sin(tau) s(x2), sqrt(2) cos(tau)) with no order-one
    slow field; the average works out to (s'(x2), 0).
    """

    spec: OscillatorySystemSpec
    fbar_exact: Callable[[np.ndarray], np.ndarray]


def bracket_benchmark() -> BracketBenchmark:
    root2 = np.sqrt(2.0)

    def s(v: float) -> float:
        return v * v

    def ds(v: float) -> float:
        return 2.0 * v

    def f1(x: np.ndarray, y: np.ndarray, tau) -> np.ndarray:
        # x2 per state, () or (B,), with a trailing 1 per phase axis
        x2 = np.reshape(x[..., 1], np.shape(x)[:-1] + (1,) * np.ndim(tau))
        rows = np.broadcast_arrays(root2 * np.sin(tau) * s(x2), root2 * np.cos(tau))
        return np.stack(rows, axis=-1)

    def zero2(x: np.ndarray, y: np.ndarray, tau) -> np.ndarray:
        return np.zeros(np.shape(x)[:-1] + np.shape(tau) + (2,))

    def zero1(x: np.ndarray, y: np.ndarray, tau) -> np.ndarray:
        return np.zeros(np.shape(x)[:-1] + np.shape(tau) + (1,))

    def phi0(x: np.ndarray) -> np.ndarray:
        return np.zeros(np.shape(x)[:-1] + (1,))

    def dphi0(x: np.ndarray) -> np.ndarray:
        return np.zeros(np.shape(x)[:-1] + (1, 2))

    spec = OscillatorySystemSpec(
        n=2,
        m=1,
        T=2.0 * np.pi,
        A=np.array([[-1.0]]),
        phi0=phi0,
        dphi0=dphi0,
        f1=f1,
        f2=zero2,
        g1=zero1,
        g2=zero1,
    )

    def fbar_exact(x: np.ndarray) -> np.ndarray:
        return np.array([ds(x[1]), 0.0])

    return BracketBenchmark(spec=spec, fbar_exact=fbar_exact)


def assembled_field(spec: OscillatorySystemSpec, omega: float) -> Callable:
    """The full right-hand side assembled from the spec's fields: one
    grid_terms read on the one-phase grid [omega t], then
    sqrt(w) F1 + (0, w A (y - phi0(x))) + F2, on arrays.  It maps a packed
    state (a list or an array) to the derivative as a list, and reads the
    spec at each call, so a field reassigned later is the one used."""
    n = spec.n
    sqrt_w = float(np.sqrt(omega))

    def field(t: float, s) -> list:
        v = np.array(s, dtype=float)
        x, y = v[:n], v[n:]
        F1, F2 = grid_terms(spec, x, y, np.array([omega * t]))
        # the same sums in the same order as sqrt(w) f1 + f2 and
        # (w A (y - phi0) + sqrt(w) g1) + g2, so every entry rounds alike
        out = sqrt_w * F1[0]
        out[n:] += omega * (spec.A @ (y - spec.phi0(x)))
        out += F2[0]
        return out.tolist()

    return field


def assembled(spec: OscillatorySystemSpec) -> OscillatorySystemSpec:
    """spec with full set to its fields' assembly (assembled_field), so a
    fields-only spec can be flown; returns the same spec."""
    spec.full = functools.partial(assembled_field, spec)
    return spec


def bvp_exact(name: str) -> Callable:
    """The exact periodic solution phi(tau) of the corrector case of that
    name; it takes one phase, or a vector of K phases for an (m, K) array."""

    def cosine(tau) -> np.ndarray:
        return np.array([0.5 * (np.cos(tau) + np.sin(tau))])

    def jordan(tau) -> np.ndarray:
        return np.array([
            np.sin(tau) - 0.5 * np.cos(tau),
            0.5 * (np.cos(tau) + np.sin(tau)),
        ])

    return {"cosine-1d": cosine, "jordan-2d": jordan}[name]


def stencil_residual(phi, A: np.ndarray, b, T: float, x=None, n_panels: int | None = None) -> float:
    """residual_bvp with its phase derivative taken by the fourth-order
    periodic stencil, as it was before the spectral rule: the same reads,
    the same periodicity gap, and a truncation error of order h^4 that
    grows with the corrector's amplitude."""
    A = np.asarray(A, dtype=float)
    if n_panels is None:
        n_panels = phi.n_panels if isinstance(phi, CorrectorSolution) else 256
    if n_panels < 8 or n_panels % 2 != 0:
        raise ConfigurationError(f"n_panels must be even and >= 8, got {n_panels}")
    h = float(T) / n_panels

    # one sweep over the grid and T itself: (T / N) * N need not equal T
    taus = np.append(h * np.arange(n_panels), float(T))
    V = phase_values(values_at(phi, x, taus), x, taus, (len(A),))
    gap = float(np.max(np.abs(V[n_panels] - V[0])))
    V, taus = V[:n_panels], taus[:n_panels]
    B = phase_values(values_at(b, x, taus), x, taus, (len(A),))
    dV = (
        -np.roll(V, -2, axis=0)
        + 8.0 * np.roll(V, -1, axis=0)
        - 8.0 * np.roll(V, 1, axis=0)
        + np.roll(V, 2, axis=0)
    ) / (12.0 * h)
    defect = float(np.max(np.abs(dV - V @ A.T - B)))
    return defect + gap


def comprehension_rk4_step(field: Callable, t: float, x: list, dt: float) -> list:
    """rk4_step's list branch as four zip comprehensions, as it was before
    the generated straight-line steppers: the array branch's products and
    sums in its order, entry by entry, so a stepper must give its bits."""
    h = 0.5 * dt
    k1 = field(t, x)
    k2 = field(t + h, [a + h * b for a, b in zip(x, k1)])
    k3 = field(t + h, [a + h * b for a, b in zip(x, k2)])
    k4 = field(t + dt, [a + dt * b for a, b in zip(x, k3)])
    h6 = dt / 6.0
    return [a + h6 * ((b1 + 2.0 * (b2 + b3)) + b4)
            for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]


def array_rk4_step(field: Callable, t: float, x: np.ndarray, dt: float) -> np.ndarray:
    """rk4_step's array branch, as it was before every run stepped a list
    of floats: the field takes and returns arrays, and a (B, d) block
    steps B states at once."""
    k1 = field(t, x)
    k2 = field(t + 0.5 * dt, x + (0.5 * dt) * k1)
    k3 = field(t + 0.5 * dt, x + (0.5 * dt) * k2)
    k4 = field(t + dt, x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def array_integrate_rk4(
    field: Callable, x0: np.ndarray, grid: TimeGrid, post_step: Callable | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """integrate_rk4's array path: array_rk4_step over the grid from a
    copy of x0, post_step applied after each step, with no divergence
    check; returns (times, states) as integrate_rk4 does."""
    times = grid.times()
    x = np.array(x0, dtype=float)
    out = np.empty((grid.n_steps + 1,) + x.shape)
    out[0] = x
    for k in range(grid.n_steps):
        x = array_rk4_step(field, times[k], x, grid.dt)
        if post_step is not None:
            x = post_step(x)
        out[k + 1] = x
    return times, out
