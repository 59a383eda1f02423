"""Small numerical kernel used by the rest of the package.

Deterministic, fixed-step routines only: matrix exponential, composite
Simpson quadrature on a period (plus its cumulative form), central
finite-difference Jacobians, and a classical RK4 integrator that steps
one state as a list of floats.  Everything is plain float64, with no
adaptivity.  The one state kept between calls
is rk4_step's cache of list steppers, one compiled function per state
length: it holds code, never numbers, so no call changes another's
result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DimensionError, DivergenceError, ManifoldError

__all__ = [
    "DEFAULT_FD_STEP",
    "TimeGrid",
    "mat_exp",
    "simpson_rule",
    "quad_periodic",
    "cumulative_simpson",
    "jacobian_fd",
    "rk4_step",
    "integrate_rk4",
]

# cube root of machine epsilon, the usual central-difference step scale
DEFAULT_FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)

_TAYLOR_ORDER = 16


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid t0 + k*dt for k = 0..n_steps.

    Times are computed from the index so long grids do not accumulate
    rounding from repeated addition.  A grid whose times are too large for
    its step is refused: the spacing of floats at the largest |time| must
    be at most dt / 4, or consecutive times (and the half steps between
    them) could round equal and the clock would stop.
    """

    t0: float
    dt: float
    n_steps: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.t0):
            raise ConfigurationError("TimeGrid t0 must be finite")
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ConfigurationError(f"TimeGrid dt must be positive, got {self.dt}")
        if self.n_steps < 1:
            raise ConfigurationError(f"TimeGrid n_steps must be >= 1, got {self.n_steps}")
        t = max(self.t0, self.t0 + self.dt * self.n_steps, key=abs)
        if math.ulp(t) > self.dt / 4.0:
            raise ConfigurationError(
                f"TimeGrid time {t:g} is too large for dt={self.dt:g}: "
                "consecutive times would round equal"
            )

    @classmethod
    def spanning(cls, t0: float, span: float, dt: float) -> TimeGrid:
        """The grid from t0 over span in steps of dt, the step count
        rounded to the nearest integer.  A span of half a step or less
        rounds to no step and is rejected."""
        if not (np.isfinite(dt) and dt > 0.0):
            raise ConfigurationError(f"TimeGrid dt must be positive, got {dt}")
        steps = span / dt
        if not (np.isfinite(steps) and steps > 0.5):
            raise ConfigurationError(
                f"span must be finite and exceed half a step of dt={dt:g}, got {span:g}"
            )
        return cls(t0=float(t0), dt=dt, n_steps=int(round(steps)))

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)


def _square_matrix(A: np.ndarray, name: str) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ConfigurationError(f"{name} contains non-finite entries")
    return A


def mat_exp(A: np.ndarray, t: float = 1.0) -> np.ndarray:
    """Matrix exponential exp(t*A) by scaling and squaring.

    The scaled matrix is pushed below unit 1-norm, a degree-16 Taylor
    polynomial is summed, and the result is squared back up.  Accurate to
    well below 1e-12 relative for ||t*A|| up to a few tens, which covers
    every periodic-coefficient problem in this package.
    """
    A = _square_matrix(A, "A")
    B = t * A
    norm = np.linalg.norm(B, 1)
    if norm == 0.0:
        return np.eye(A.shape[0])
    n_squarings = max(0, int(np.ceil(np.log2(norm)))) if norm > 1.0 else 0
    C = B / (2.0**n_squarings)
    E = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, _TAYLOR_ORDER + 1):
        term = term @ C / k
        E = E + term
    for _ in range(n_squarings):
        E = E @ E
    return E


def simpson_rule(T: float, n_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of composite Simpson on [0, T].

    n_panels is the subinterval count and must be even (each Simpson
    parabola spans two subintervals).
    """
    if n_panels < 2 or n_panels % 2 != 0:
        raise ConfigurationError(f"n_panels must be even and >= 2, got {n_panels}")
    if not (np.isfinite(T) and T > 0.0):
        raise ConfigurationError(f"period T must be positive, got {T}")
    h = T / n_panels
    nodes = h * np.arange(n_panels + 1)
    weights = np.full(n_panels + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    weights *= h / 3.0
    return nodes, weights


def quad_periodic(f: Callable[[float], np.ndarray], T: float, n_panels: int = 256) -> np.ndarray:
    """Integral of a vector-valued function over one period [0, T]."""
    nodes, weights = simpson_rule(T, n_panels)
    f0 = np.atleast_1d(np.asarray(f(nodes[0]), dtype=float))
    acc = weights[0] * f0
    for s, w in zip(nodes[1:], weights[1:]):
        acc = acc + w * np.atleast_1d(np.asarray(f(s), dtype=float))
    return acc


def cumulative_simpson(samples: np.ndarray, dt: float) -> np.ndarray:
    """Running integral of uniformly sampled values, Simpson-based.

    samples has shape (K, ...) with K >= 3; entry k of the result is the
    integral from node 0 to node k.  Even nodes use standard Simpson
    pairs; odd nodes use the half-panel rule through the surrounding
    parabola, so quadratics integrate exactly at every node.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] < 3:
        raise ConfigurationError("cumulative_simpson needs at least 3 samples")
    if not (np.isfinite(dt) and dt > 0.0):
        raise ConfigurationError(f"dt must be positive, got {dt}")
    K = samples.shape[0]
    out = np.zeros_like(samples)
    # each Simpson pair adds to the running sum in node order, so the
    # cumsum reproduces node-by-node accumulation bit for bit
    out[2::2] = np.cumsum(
        (dt / 3.0) * (samples[0:-2:2] + 4.0 * samples[1:-1:2] + samples[2::2]), axis=0
    )
    out[1 : K - 1 : 2] = out[0 : K - 2 : 2] + (dt / 12.0) * (
        5.0 * samples[0 : K - 2 : 2] + 8.0 * samples[1 : K - 1 : 2] - samples[2:K:2]
    )
    if K % 2 == 0:
        # final odd node: parabola through the last three samples
        out[K - 1] = out[K - 2] + (dt / 12.0) * (
            -samples[K - 3] + 8.0 * samples[K - 2] + 5.0 * samples[K - 1]
        )
    return out


def jacobian_fd(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of f at x, shape f(x).shape + (len(x),).

    f is called once, on the (2n, n) block of perturbed states: row i is
    x + h_i e_i and row n + i is x - h_i e_i, with the per-coordinate step
    h_i = cbrt(eps) * (1 + |x_i|).  It returns (2n, ...), one value per
    row; f may be array-valued (a field over a phase grid, say), and a
    scalar value counts as shape (1,).  Column i is (F[i] - F[n + i]) /
    (2 h_i), in one C-ordered array.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim != 1 or x.shape[0] == 0:
        raise DimensionError(f"x must be a non-empty vector, got shape {x.shape}")
    n = x.shape[0]
    h = DEFAULT_FD_STEP * (1.0 + np.abs(x))
    rows = np.arange(n)
    X = np.tile(x, (2 * n, 1))
    X[rows, rows] += h
    X[n + rows, rows] -= h
    F = np.asarray(f(X), dtype=float)
    if F.shape[:1] != (2 * n,):
        raise DimensionError(f"f returned shape {F.shape} for {2 * n} states")
    D = (F[:n] - F[n:]).reshape(n, -1) / (2.0 * h)[:, None]
    return np.ascontiguousarray(D.T).reshape((F.shape[1:] or (1,)) + (n,))


# rk4_step's list stepper for states of {n} floats.  Every other
# placeholder stands for n entries of its term in _LIST_TERMS, i = 0..n-1,
# joined with commas.
_LIST_STEP = """\
def step(field, t, x, dt):
    [{x}] = x
    h = 0.5 * dt
    k = field(t, x)
    if len(k) != {n}:
        raise DimensionError(f"field returned {{len(k)}} entries for a state of {n}")
    [{a}] = k
    k = field(t + h, [{x_a}])
    if len(k) != {n}:
        raise DimensionError(f"field returned {{len(k)}} entries for a state of {n}")
    [{b}] = k
    k = field(t + h, [{x_b}])
    if len(k) != {n}:
        raise DimensionError(f"field returned {{len(k)}} entries for a state of {n}")
    [{c}] = k
    k = field(t + dt, [{x_c}])
    if len(k) != {n}:
        raise DimensionError(f"field returned {{len(k)}} entries for a state of {n}")
    [{d}] = k
    h6 = dt / 6.0
    return [{result}]
"""
_LIST_TERMS = {
    "x": "x{i}", "a": "a{i}", "b": "b{i}", "c": "c{i}", "d": "d{i}",
    "x_a": "x{i} + h * a{i}",
    "x_b": "x{i} + h * b{i}",
    "x_c": "x{i} + dt * c{i}",
    "result": "x{i} + h6 * ((a{i} + 2.0 * (b{i} + c{i})) + d{i})",
}

# rk4_step's list steppers by state length, each compiled on first use
_LIST_STEPPERS: dict[int, Callable] = {}


def rk4_step(field: Callable[[float, list], list], t: float, x: list, dt: float) -> list:
    """One classical Runge-Kutta step of size dt of a list of floats.

    The field takes and returns lists.  A list of n floats is stepped by
    straight-line code that the first such step compiles from _LIST_STEP
    and n alone, kept for the process: x and each stage unpacked into
    locals, x + h6 * ((a + 2 (b + c)) + d) per entry.  A field that
    returns a list of another length raises DimensionError.
    """
    n = len(x)
    if n not in _LIST_STEPPERS:
        source = _LIST_STEP.format(n=n, **{
            key: ", ".join([term.format(i=i) for i in range(n)])
            for key, term in _LIST_TERMS.items()})
        namespace = {"DimensionError": DimensionError}
        exec(compile(source, f"<rk4_step, list of {n}>", "exec"), namespace)
        _LIST_STEPPERS[n] = namespace["step"]
    return _LIST_STEPPERS[n](field, t, x, dt)


def integrate_rk4(
    field: Callable[[float, list], list],
    x0: list | np.ndarray,
    grid: TimeGrid,
    post_step: Callable[[list], list] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 over the grid; returns (times, states).

    x0 is one state of d floats, a list or a (d,) array, read once as a
    list and stepped as one (rk4_step): the field and post_step take and
    return lists.  states[k], of shape (d,), is the state at times[k].
    post_step, when given, is applied to the state after each step
    (constraint projection hooks).  Raises DivergenceError at the first
    step with a non-finite entry or a math domain error (mostly math.cos
    of a field value that overflowed on a finite but huge stage,
    sometimes of an infinite stage), and also when post_step raises
    ManifoldError on a finite state that has drifted too far to project
    back.
    """
    x = np.asarray(x0, dtype=float)
    if x.ndim != 1:
        raise DimensionError(f"x0 must be one state of floats, got shape {x.shape}")
    x = x.tolist()
    times = grid.times()
    steps = times.tolist()
    out = np.empty((grid.n_steps + 1, len(x)))
    out[0] = x
    for k in range(grid.n_steps):
        try:
            x = rk4_step(field, steps[k], x, grid.dt)
        except ValueError as err:
            if str(err) != "math domain error":
                raise
            raise DivergenceError(k + 1, float(times[k + 1])) from err
        if not all(map(math.isfinite, x)):
            raise DivergenceError(k + 1, float(times[k + 1]))
        if post_step is not None:
            try:
                x = post_step(x)
            except ManifoldError as err:
                t = float(times[k + 1])
                raise DivergenceError(k + 1, t, f"projection failed at t={t:.6g}: {err}") from err
        out[k + 1] = x
    return times, out
