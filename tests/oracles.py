"""Closed-form oracles that no command runs.

A planar system whose average is produced entirely by the oscillation
bracket, and the exact periodic solutions of the two corrector cases in
twoscale.benchmarks.  pytest puts tests/ on the import path, so a test
reads them with ``from oracles import ...``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from twoscale.system import OscillatorySystemSpec


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
