"""Built-in benchmark systems with known closed-form behavior.

These are the reference problems the command line and the test suite
exercise: a linear slow-fast system whose average solves in closed form,
a planar system whose average is produced entirely by the oscillation
bracket, and two small corrector problems with exact periodic solutions.
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
    "BracketBenchmark",
    "bracket_benchmark",
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

    def averaged_field(self, t: float, x: np.ndarray) -> np.ndarray:
        return self.Mbar @ x


def linear_benchmark() -> LinearBenchmark:
    M0 = np.array([[-0.5, 1.0], [-1.0, -0.5]])
    M1 = np.array([[0.8, 0.0], [0.0, -0.6]])
    N = 0.2 * np.eye(2)

    def phi0(x: np.ndarray) -> np.ndarray:
        return 0.5 * x

    def dphi0(x: np.ndarray) -> np.ndarray:
        return np.tile(0.5 * np.eye(2), np.shape(x)[:-1] + (1, 1))

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
        dphi0=dphi0,
        f1=zero2,
        f2=f2,
        g1=zero2,
        g2=zero2,
        name="linear-benchmark",
    )
    x0 = np.array([1.0, 0.5])
    return LinearBenchmark(spec=spec, Mbar=M0 + 0.5 * N, x0=x0, y0=phi0(x0))


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
        name="bracket-benchmark",
    )

    def fbar_exact(x: np.ndarray) -> np.ndarray:
        return np.array([ds(x[1]), 0.0])

    return BracketBenchmark(spec=spec, fbar_exact=fbar_exact)


@dataclass(frozen=True)
class BvpCase:
    """One corrector problem with a verifiable periodic solution.

    The source b(x, taus) follows the spec's phase-field contract: (K, m)
    at a vector of K phases.  exact(tau) takes one phase.
    """

    name: str
    A: np.ndarray
    T: float
    b: Callable
    exact: Callable | None  # exact phi(tau), when known


def bvp_cosine_case() -> BvpCase:
    def b(x, tau) -> np.ndarray:
        return np.array([np.cos(tau)]).T

    def exact(tau: float) -> np.ndarray:
        return np.array([0.5 * (np.cos(tau) + np.sin(tau))])

    return BvpCase(name="cosine-1d", A=np.array([[-1.0]]), T=2.0 * np.pi, b=b, exact=exact)


def bvp_jordan_case() -> BvpCase:
    def b(x, tau) -> np.ndarray:
        return np.array([np.sin(tau), np.cos(tau)]).T

    def exact(tau: float) -> np.ndarray:
        return np.array([
            np.sin(tau) - 0.5 * np.cos(tau),
            0.5 * (np.cos(tau) + np.sin(tau)),
        ])

    return BvpCase(name="jordan-2d", A=_LAYER_A.copy(), T=2.0 * np.pi, b=b, exact=exact)


def field_by_name(name: str) -> ScalarField:
    """Look up a built-in scalar field, with a helpful error."""
    fields = builtin_fields()
    if name not in fields:
        raise ConfigurationError(f"unknown field {name!r}; choices: {sorted(fields)}")
    return fields[name]
