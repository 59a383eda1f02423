"""Built-in benchmark systems with known closed-form behavior.

These are the reference problems the command line runs: a linear
slow-fast system whose average solves in closed form, and two small
corrector problems with exact periodic solutions (the solutions
themselves are test oracles, in tests/oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .seeker import ScalarField, builtin_fields
from .system import OscillatorySystemSpec

__all__ = [
    "LinearBenchmark",
    "linear_benchmark",
    "BvpCase",
    "bvp_cosine_case",
    "bvp_jordan_case",
    "field_by_name",
]

_LAYER_A = np.array([[-1.0, 1.0], [0.0, -1.0]])


@dataclass(frozen=True)
class LinearBenchmark:
    """Linear slow-fast system with closed-form average.

    The slow field is (M0 + cos(tau) M1) x + N y restricted to the fast
    manifold y = x/2, which averages to Mbar x with
    Mbar = M0 + N/2; the oscillatory part has zero mean, and there is no
    sqrt-scale slow field, so the deviation from the average shrinks like
    1/omega.
    """

    spec: OscillatorySystemSpec
    Mbar: np.ndarray
    x0: np.ndarray
    y0: np.ndarray

    def averaged_field(self, t: float, x: list) -> list:
        """Mbar x as a list of floats, as integrate_rk4 steps it."""
        return (self.Mbar @ x).tolist()


def linear_benchmark() -> LinearBenchmark:
    M0 = np.array([[-0.5, 1.0], [-1.0, -0.5]])
    M1 = np.array([[0.8, 0.0], [0.0, -0.6]])
    N = 0.2 * np.eye(2)

    def phi0(x: np.ndarray) -> np.ndarray:
        return 0.5 * x

    def zero2(x: np.ndarray, y: np.ndarray, tau) -> np.ndarray:
        return np.zeros(np.shape(x)[:-1] + np.shape(tau) + (2,))

    def f2(x: np.ndarray, y: np.ndarray, tau) -> np.ndarray:
        a = (M0 @ x).tolist()
        b = (M1 @ x).tolist()
        e = (N @ y).tolist()
        ct = np.cos(tau)
        return np.array([a[0] + ct * b[0] + e[0], a[1] + ct * b[1] + e[1]]).T

    spec = OscillatorySystemSpec(
        n=2,
        m=2,
        T=2.0 * np.pi,
        A=_LAYER_A.copy(),
        phi0=phi0,
        f1=zero2,
        f2=f2,
        g1=zero2,
        g2=zero2,
    )
    x0 = np.array([1.0, 0.5])
    return LinearBenchmark(spec=spec, Mbar=M0 + 0.5 * N, x0=x0, y0=phi0(x0))


@dataclass(frozen=True)
class BvpCase:
    """One corrector problem with a verifiable periodic solution.

    The source b(x, taus) follows the spec's phase-field contract: (K, m)
    at a vector of K phases.
    """

    name: str
    A: np.ndarray
    T: float
    b: Callable


def bvp_cosine_case() -> BvpCase:
    def b(x, tau) -> np.ndarray:
        return np.array([np.cos(tau)]).T

    return BvpCase(name="cosine-1d", A=np.array([[-1.0]]), T=2.0 * np.pi, b=b)


def bvp_jordan_case() -> BvpCase:
    def b(x, tau) -> np.ndarray:
        return np.array([np.sin(tau), np.cos(tau)]).T

    return BvpCase(name="jordan-2d", A=_LAYER_A.copy(), T=2.0 * np.pi, b=b)


def field_by_name(name: str) -> ScalarField:
    """Look up a built-in scalar field, with a helpful error."""
    fields = builtin_fields()
    if name not in fields:
        raise ConfigurationError(f"unknown field {name!r}; choices: {sorted(fields)}")
    return fields[name]
