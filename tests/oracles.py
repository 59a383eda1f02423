"""Oracles that no command runs.

A planar system whose average is produced entirely by the oscillation
bracket, the exact periodic solutions of the two corrector cases in
twoscale.benchmarks, and the fourth-order stencil residual that
residual_bvp's spectral derivative replaced.  pytest puts tests/ on the
import path, so a test reads them with ``from oracles import ...``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from twoscale.averaging import CorrectorSolution, values_at
from twoscale.errors import ConfigurationError
from twoscale.system import OscillatorySystemSpec, phase_values


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
