"""Bio-inspired 3D source seeking with a dithered rigid body.

A vehicle with position p and attitude R carries one scalar sensor,
offset from the center along the second body axis.  It surges along its
first body axis with a fast dither whose phase is modulated by the
sensor reading, rolls about that axis at the fast rate, and steers with
a band-pass filtered copy of the reading.  On average the vehicle turns
its surge axis up the gradient of the sensed field and ascends it.

Two representations are implemented: the raw kinematics (p, R, y) and
the rotating-frame representation (p, Q, y) with R = Q R0(tau),
R0(tau) = exp_so3(tau e1), which removes the fast roll.  Both are
integrated exactly; a cross-check pins their equivalence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, DimensionError, ManifoldError
from .numkit import TimeGrid, integrate_rk4
from .so3 import cross3, embed, exp_so3, extract, manifold_residual, project_so3
from .system import OscillatorySystemSpec

__all__ = [
    "ScalarField",
    "SeekerConfig",
    "builtin_fields",
    "sensor_position",
    "initial_state",
    "seeker_field",
    "raw_kinematics_field",
    "cross_check",
    "simulate_seeker",
    "SeekerTrajectory",
    "averaged_seeker_field",
    "lyapunov_value_and_rate",
    "as_system_spec",
    "FILTER_A",
    "FILTER_B",
]

# band-pass filter realization: dy = w (A y + B u), output C y = y2 - y1
FILTER_A = np.array([[-1.0, 1.0], [0.0, -1.0]])
FILTER_B = np.array([0.0, 1.0])

_E1 = np.array([1.0, 0.0, 0.0])


@dataclass(frozen=True)
class ScalarField:
    """Sensed scalar field with its critical point and derivatives.

    c, grad and hess (required) take a point as a list of 3 floats, giving
    a float, a list of 3 floats and 3 lists of 3 floats.  c and grad also
    take a (3,) array or a (B, 3) block, one point per row, giving arrays;
    the built-in fields give each row of every form the list's bits (see
    _sum_sq).  simulate and sweep read the list form at every step.
    """

    name: str
    c: Callable[[list | np.ndarray], float | np.ndarray]
    grad: Callable[[list | np.ndarray], list | np.ndarray]
    p_star: np.ndarray
    hess: Callable[[list], list]


def _sum_sq(p):
    """p0*p0 + p1*p1 + p2*p2 added left to right, of a list of 3 floats or per
    row of an array: numpy fuses no multiply and add, so each row has the list's bits."""
    if isinstance(p, list):
        p0, p1, p2 = p
        return p0 * p0 + p1 * p1 + p2 * p2
    q = (p * p).T
    return q[0] + q[1] + q[2]


def builtin_fields() -> dict[str, ScalarField]:
    """The two reference fields used across the test problems."""

    def log_c(p):
        h = 0.5 * _sum_sq(p)
        if isinstance(h, float):
            return -math.log1p(h)
        return -np.fromiter(map(math.log1p, h.tolist()), float, len(h))

    def log_grad(p):
        d = 1.0 + 0.5 * _sum_sq(p)
        return [-p[0] / d, -p[1] / d, -p[2] / d] if isinstance(p, list) else -p / d[..., None]

    def log_hess(p):
        p0, p1, p2 = p
        s = 1.0 + 0.5 * _sum_sq(p)
        ss, d, z = s * s, -1.0 / s, -0.0 / s
        return [[d + p0 * p0 / ss, z + p0 * p1 / ss, z + p0 * p2 / ss],
                [z + p1 * p0 / ss, d + p1 * p1 / ss, z + p1 * p2 / ss],
                [z + p2 * p0 / ss, z + p2 * p1 / ss, d + p2 * p2 / ss]]

    def quad_c(p):
        return -0.5 * _sum_sq(p)

    def quad_grad(p):
        return [-p[0], -p[1], -p[2]] if isinstance(p, list) else -p

    def quad_hess(p):
        return [[-1.0, -0.0, -0.0], [-0.0, -1.0, -0.0], [-0.0, -0.0, -1.0]]

    return {
        "log": ScalarField(
            name="log",
            c=log_c,
            grad=log_grad,
            hess=log_hess,
            p_star=np.zeros(3),
        ),
        "quadratic": ScalarField(
            name="quadratic",
            c=quad_c,
            grad=quad_grad,
            hess=quad_hess,
            p_star=np.zeros(3),
        ),
    }


@dataclass(frozen=True)
class SeekerConfig:
    """Simulation parameters for the closed-loop seeker.

    The sensor offset and dither amplitude are tied to omega
    (radius 1/sqrt(omega), speed amplitude sqrt(4 omega)); only the
    frequency, step resolution and projection switch are free.  The
    filter start is an argument of initial_state and simulate_seeker.
    steps_per_fast_period counts RK4 steps per dither period pi/omega,
    the fastest scale in the loop.
    """

    omega: float
    steps_per_fast_period: int = 200
    projection: bool = True

    def __post_init__(self) -> None:
        if not (np.isfinite(self.omega) and self.omega > 0.0):
            raise ConfigurationError(f"omega must be positive, got {self.omega}")
        if self.steps_per_fast_period < 2:
            raise ConfigurationError(
                f"steps_per_fast_period must be >= 2, got {self.steps_per_fast_period}"
            )

    @property
    def eps(self) -> float:
        return 1.0 / float(np.sqrt(self.omega))

    @property
    def dt(self) -> float:
        return (np.pi / self.omega) / self.steps_per_fast_period


def sensor_position(p: np.ndarray, q: np.ndarray, tau: float, radius: float) -> np.ndarray:
    """World position of the sensor in the rotating-frame representation."""
    q = np.asarray(q, dtype=float)
    if q.shape != (9,):
        raise DimensionError(f"q must have shape (9,), got {q.shape}")
    d = _dither_axis(q.tolist(), math.cos(tau), math.sin(tau))
    return np.asarray(p, dtype=float) + radius * np.array(d)


def initial_state(
    fld: ScalarField,
    p0: np.ndarray,
    R0: np.ndarray,
    y0: Sequence[float] | None = None,
) -> np.ndarray:
    """Packed initial state; the filter starts quasi-steady unless y0 is given.

    Quasi-steady means y = -A^{-1} B c(p0) = (c(p0), c(p0)), c read on p0 as
    a list, which removes the initial fast transient.  A start that cannot be
    flown, a non-finite y0 or field value c(p0), raises ConfigurationError.
    """
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (3,):
        raise DimensionError(f"p0 must have shape (3,), got {p0.shape}")
    if not np.all(np.isfinite(p0)):
        raise ConfigurationError(f"p0 must be finite, got {p0.tolist()}")
    with np.errstate(over="ignore", invalid="ignore"):
        c0 = float(fld.c(p0.tolist()))
    if not math.isfinite(c0):
        raise ConfigurationError(f"c(p0) must be finite, got {c0} at p0 = {p0.tolist()}")
    R0 = np.asarray(R0, dtype=float)
    res = manifold_residual(embed(R0))
    if not res < 1e-6:
        raise ManifoldError(f"R0 is not a rotation (residual {res:.3g})")
    if y0 is not None:
        y = np.asarray(y0, dtype=float)
        if y.shape != (2,):
            raise DimensionError(f"y0 must have shape (2,), got {y.shape}")
        if not np.all(np.isfinite(y)):
            raise ConfigurationError(f"y0 must be finite, got {y.tolist()}")
    else:
        y = np.array([c0, c0])
    return np.concatenate([p0, embed(R0), y])


def seeker_field(
    config: SeekerConfig, fld: ScalarField
) -> Callable[[float, list], list]:
    """Closed-loop right-hand side in the rotating-frame representation.

    State layout: p (3), frame columns q (9), filter y (2), as a list of
    14 floats; the derivative is returned as one too.  The roll is
    absorbed into the frame R0(tau) = exp_so3(tau e1); what remains of
    the steering is the filtered reading times the rotated third axis
    R0(tau) e3 = (0, -sin tau, cos tau), in world coordinates
    cos(tau) q3 - sin(tau) q2.

    The body is the float arithmetic of _dither_axis and _frame_turn
    written out entry by entry, with the same products and sums in the
    same order.  The reading is c on the sensor position as a list of 3
    floats, which the built-in fields compute with the array form's bits.
    """
    w = config.omega
    sqw = float(np.sqrt(w))
    radius = config.eps
    amp = 2.0 * sqw
    c = fld.c

    def rhs(t: float, s: list) -> list:
        # the frame columns are q1 = (a0, a1, a2), q2 = (b0, ...), q3 = (c0, ...)
        p0, p1, p2, a0, a1, a2, b0, b1, b2, c0, c1, c2, ya, yb = s
        tau = w * t
        ct = math.cos(tau)
        st = math.sin(tau)
        # the sensor rides the dither axis cos(tau) q2 + sin(tau) q3
        val = c([
            p0 + radius * (ct * b0 + st * c0),
            p1 + radius * (ct * b1 + st * c1),
            p2 + radius * (ct * b2 + st * c2),
        ])
        surge = amp * math.cos(2.0 * tau - val)
        gain = sqw * (yb - ya)
        # the frame turns about the steering axis v = cos(tau) q3 - sin(tau) q2
        v0 = ct * c0 - st * b0
        v1 = ct * c1 - st * b1
        v2 = ct * c2 - st * b2
        return [
            surge * a0, surge * a1, surge * a2,
            gain * (v1 * a2 - v2 * a1), gain * (v2 * a0 - v0 * a2), gain * (v0 * a1 - v1 * a0),
            gain * (v1 * b2 - v2 * b1), gain * (v2 * b0 - v0 * b2), gain * (v0 * b1 - v1 * b0),
            gain * (v1 * c2 - v2 * c1), gain * (v2 * c0 - v0 * c2), gain * (v0 * c1 - v1 * c0),
            w * (yb - ya), w * (val - yb),
        ]

    return rhs


def raw_kinematics_field(
    config: SeekerConfig, fld: ScalarField
) -> Callable[[float, list], list]:
    """Closed-loop right-hand side for the raw vehicle (p, R, y).

    The vehicle surges along its first body axis with the dithered
    speed, rolls about it at rate omega, and steers about the third body
    axis with the filtered reading.  The sensor rides the second body
    axis.

    This is cross_check's oracle for seeker_field, so it keeps its own
    formula and shares no helper with the rotating-frame right-hand side:
    it takes and returns a list of 14 floats, with numpy arithmetic inside.
    """
    w = config.omega
    sqw = float(np.sqrt(w))
    radius = config.eps
    amp = 2.0 * sqw
    c = fld.c

    def rhs(t: float, s: list) -> list:
        s = np.array(s)
        p = s[0:3]
        r1 = s[3:6]
        r2 = s[6:9]
        r3 = s[9:12]
        y = s[12:14]
        ps = p + radius * r2
        val = float(c(ps))

        dp = (amp * np.cos(2.0 * w * t - val)) * r1

        # body angular velocity w e1 + sqrt(w) (C y) e3, in world coords
        omega_world = w * r1 + (sqw * (y[1] - y[0])) * r3
        dr1 = cross3(omega_world, r1)
        dr2 = cross3(omega_world, r2)
        dr3 = cross3(omega_world, r3)

        dy0 = w * (y[1] - y[0])
        dy1 = w * (val - y[1])
        return np.concatenate([dp, dr1, dr2, dr3, [dy0, dy1]]).tolist()

    return rhs


def cross_check(
    config: SeekerConfig,
    fld: ScalarField,
    p0: np.ndarray,
    R0: np.ndarray,
) -> float:
    """Worst disagreement between the raw and rotating representations.

    Both start from the same physical state (the rotating frame equals R
    at t = 0) and integrate unprojected over one frame period 2 pi / omega
    at the config's step; the raw attitude is compared against
    Q exp_so3(w t e1) step by step.  Agreement at the integrator's
    accuracy level certifies that the two right-hand sides describe the
    same vehicle.
    """
    w = config.omega
    s0 = initial_state(fld, p0, R0)
    n_steps = 2 * config.steps_per_fast_period
    grid = TimeGrid(t0=0.0, dt=config.dt, n_steps=n_steps)

    times, raw = integrate_rk4(raw_kinematics_field(config, fld), s0, grid)
    _, rot = integrate_rk4(seeker_field(config, fld), s0.tolist(), grid)

    dev = 0.0
    for k in range(n_steps + 1):
        t = times[k]
        dev = max(dev, float(np.max(np.abs(raw[k, 0:3] - rot[k, 0:3]))))
        dev = max(dev, float(np.max(np.abs(raw[k, 12:14] - rot[k, 12:14]))))
        Q = extract(rot[k, 3:12], tol=None)
        R_pred = Q @ exp_so3((w * t) * _E1)
        R_raw = extract(raw[k, 3:12], tol=None)
        dev = max(dev, float(np.max(np.abs(R_raw - R_pred))))
    return dev


@dataclass(frozen=True)
class SeekerTrajectory:
    """Recorded rotating-frame run: times (K,), states (K, 14)."""

    times: np.ndarray
    states: np.ndarray

    def center_values(self, fld: ScalarField) -> np.ndarray:
        return fld.c(self.states[:, 0:3])

    def frame_residuals(self) -> np.ndarray:
        return manifold_residual(self.states[:, 3:12])

    def lyapunov_values(self, fld: ScalarField, center: np.ndarray | None = None) -> np.ndarray:
        """V_c = c(p_star) - c(p) per row; center, when given, is this
        run's center_values(fld), which then is not evaluated again."""
        if center is None:
            center = self.center_values(fld)
        return float(fld.c(fld.p_star)) - center


def _project_state(s: list) -> list:
    """The 14-float state with its frame projected back onto SO(3)."""
    return s[0:3] + project_so3(s[3:12]) + s[12:14]


def simulate_seeker(
    config: SeekerConfig,
    fld: ScalarField,
    p0: np.ndarray,
    R0: np.ndarray,
    t_f: float,
    y0: Sequence[float] | None = None,
    stride: int = 1,
    t0: float = 0.0,
) -> SeekerTrajectory:
    """Integrate the rotating-frame seeker over [t0, t0 + t_f].

    The step is pi/omega divided by steps_per_fast_period, and t_f is
    rounded to a whole number of steps (TimeGrid.spanning); the frame is
    projected back onto the rotation constraint after every step when
    projection is enabled.  stride thins the recording (the first and
    final states are always kept).  t0 sets the dither phase at the start.
    """
    if stride < 1:
        raise ConfigurationError(f"stride must be >= 1, got {stride}")
    s0 = initial_state(fld, p0, R0, y0=y0)
    grid = TimeGrid.spanning(t0, t_f, config.dt)
    n_steps = grid.n_steps
    post = _project_state if config.projection else None
    times, states = integrate_rk4(seeker_field(config, fld), s0.tolist(), grid, post_step=post)
    keep = np.arange(0, n_steps + 1, min(stride, n_steps))
    if keep[-1] != n_steps:
        keep = np.append(keep, n_steps)
    return SeekerTrajectory(times=times[keep], states=states[keep])


def averaged_seeker_field(fld: ScalarField) -> Callable[[float, list], list]:
    """Averaged closed loop on (p, q): ascend along the surge axis,
    turn the surge axis toward the gradient at a quarter rate.

    dp = u1 q1 and dQ = Q hat(e1 x Q^T grad c) / 4, where uj = qj . grad c;
    in the body frame that is dq1 = (u2 q2 + u3 q3) / 4, dq2 = -(u2 / 4) q1
    and dq3 = -(u3 / 4) q1, the world angular velocity (u2 q3 - u3 q2) / 4.
    The time argument is ignored (the average is autonomous).

    One float formula computes it on a state of 12 floats (p, frame
    columns), reading grad c as a list of 3 floats, and gives a list of 12
    floats, as integrate_rk4 steps it.  u is the left-to-right sum
    u_j = q_j[0] g[0] + q_j[1] g[1] + q_j[2] g[2].
    """
    grad = fld.grad

    def rhs(t: float, s: list) -> list:
        # the frame columns are q1 = (a0, a1, a2), q2 = (b0, ...), q3 = (c0, ...)
        p0, p1, p2, a0, a1, a2, b0, b1, b2, c0, c1, c2 = s
        g0, g1, g2 = grad([p0, p1, p2])
        u0 = a0 * g0 + a1 * g1 + a2 * g2
        u1 = b0 * g0 + b1 * g1 + b2 * g2
        u2 = c0 * g0 + c1 * g1 + c2 * g2
        h1, h2 = 0.25 * u1, 0.25 * u2
        return [u0 * a0, u0 * a1, u0 * a2,
                h1 * b0 + h2 * c0, h1 * b1 + h2 * c1, h1 * b2 + h2 * c2,
                -h1 * a0, -h1 * a1, -h1 * a2, -h2 * a0, -h2 * a1, -h2 * a2]

    return rhs


def lyapunov_value_and_rate(
    fld: ScalarField, p: np.ndarray, q: np.ndarray
) -> tuple[float, float]:
    """Height deficit V = c(p_star) - c(p) and its averaged-flow rate.

    Along the averaged closed loop, dV/dt = -(q1 . grad c)^2 <= 0.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if q.shape != (9,):
        raise DimensionError(f"q must have shape (9,), got {q.shape}")
    value = float(fld.c(fld.p_star)) - float(fld.c(p))
    u1 = float(q[0:3] @ np.asarray(fld.grad(p), dtype=float))
    return value, -u1 * u1


def _dither_axis(q: list, ct, st) -> list:
    """Components of cos(tau) q2 + sin(tau) q3, the sensor's offset axis."""
    return [ct * q[3] + st * q[6], ct * q[4] + st * q[7], ct * q[5] + st * q[8]]


def _frame_turn(q: list, ct, st) -> list:
    """The 9 components of w x q1, w x q2, w x q3 for the steering axis
    w = cos(tau) q3 - sin(tau) q2, from the 9 frame entries q."""
    w0 = ct * q[6] - st * q[3]
    w1 = ct * q[7] - st * q[4]
    w2 = ct * q[8] - st * q[5]
    out = []
    for a0, a1, a2 in (q[0:3], q[3:6], q[6:9]):
        out += [w1 * a2 - w2 * a1, w2 * a0 - w0 * a2, w0 * a1 - w1 * a0]
    return out


def _columns(v, tau) -> list:
    """The k components of v, (k,) at a state or (B, k) on a block, each
    shaped to broadcast in front of the phases tau: () or (B,), with a
    trailing 1 when tau is a vector."""
    v = np.asarray(v, dtype=float)
    return list(v.T.reshape(v.shape[-1:] + v.shape[:-1] + (1,) * np.ndim(tau)))


def _stack(rows: list) -> np.ndarray:
    """Components (K,) or (B, K) stacked along a new last axis, as a view
    with the component axis slowest, so a block's row b is laid out as the
    single-state stack is."""
    stacked = np.array(rows)
    return stacked.transpose(tuple(range(1, stacked.ndim)) + (0,))


def _terms_view(terms, part: int, cols: slice):
    """One phase field of a spec as its columns of terms' F1 (part 0,
    computed alone) or F2 (part 1)."""
    return lambda x, y, tau: terms(x, y, tau, part == 1)[part][..., cols]


def as_system_spec(fld: ScalarField) -> OscillatorySystemSpec:
    """The seeker as a two-time-scale system on x = (p, q), y = filter.

    The slow state is the 12-vector (p, frame columns); the fast state is
    the filter pair.  The decomposition lives in the dither phase tau and
    is frequency-free: the sensor offset enters only through the Taylor
    split of the reading around the center value, which is what the
    sqrt-scale and order-one slow/fast fields below encode.

    terms stacks the split's components, and f1, f2, g1 and g2 are views
    of its columns that grid_terms never calls; full(omega), which
    assemble_full_field returns, is the full right-hand side of the same
    split as straight-line float code over the 14 state floats.  c, grad
    and the Hessian read the center as a list of 3 floats (the built-in
    fields give it the array form's bits), and every entry is the same
    products and sums in the same order as terms and the generic assembly,
    sqrt(w) f1 + f2 and (sqrt(w) g1 + w A (y - phi0)) + g2, F2's zeros and
    the products with B's zero entry included, so the two agree bit for
    bit.  The layer term w A z is w (0.0 + (z1 - z0)) and w (0.0 - z1):
    numpy's 2x2 product sums each row onto +0.0, so these give its bits,
    signed zeros included, where -z0 + z1 and 0 z0 - z1 do not.

    phi0, dphi0 and terms' F1 take a state or a block of states (the
    spec's block contract) through one formula: each state's scalars are
    arrays that broadcast in front of the phase axes (_columns), and a
    block call reads c and grad once for all its rows, whose bits are the
    one-state call's (the built-in fields' c and grad are equal per row on
    a block).

    On y = phi0(x), where every averaging grid reads f1, the gain is +0.0
    and f1's frame rows are +0.0, the turn unformed.  +0.0 (w x q_j) would
    be a zero of either sign, but no output could see it: each path to one
    passes a numpy matmul or einsum sum, which starts from +0.0.
    """
    grad = fld.grad
    c = fld.c
    hess = fld.hess
    A = FILTER_A.copy()
    fb0, fb1 = FILTER_B.tolist()

    def phi0(x: np.ndarray) -> np.ndarray:
        val = c(x[..., 0:3])
        return np.stack([val, val], axis=-1)

    def dphi0(x: np.ndarray) -> np.ndarray:
        g = np.asarray(grad(x[..., 0:3]), dtype=float)
        out = np.zeros(np.shape(x)[:-1] + (2, 12))
        out[..., 0, 0:3] = g
        out[..., 1, 0:3] = g
        return out

    def f1_rows(q: list, gain, ct, st, s1) -> list:
        """The 12 components of f1: the dithered surge s1 q1 and the
        filter-gain turn of the frame.  Where y = phi0(x) the gain is +0.0
        and the turn is +0.0; on a block wholly on it the turn is not
        formed, and its nine rows are one shared +0.0 array."""
        surge = [s1 * q[0], s1 * q[1], s1 * q[2]]
        zero = np.zeros(np.shape(s1))
        if not np.any(gain):
            return surge + [zero] * 9
        return surge + [np.where(gain == 0.0, zero, gain * r) for r in _frame_turn(q, ct, st)]

    def terms(x: np.ndarray, y: np.ndarray, tau, order_one: bool = True):
        """F1 = (f1, g1) and F2 = (f2, g2) (None unless order_one), each
        component a (K,) array over the K phases tau, or (B, K) on a block
        of B states (F1 only).  The filter gain yb - ya is +0.0 on
        y = phi0(x), where F1's frame rows are +0.0 as F2's are.  All four
        fields share c(p), grad, the trig values and the dither axis."""
        tau = np.asarray(tau, dtype=float)
        p, q = x[..., 0:3], _columns(x[..., 3:12], tau)
        ya, yb = _columns(y, tau)
        g = _columns(grad(p), tau)
        (val,) = _columns(np.expand_dims(c(p), -1), tau)
        ct, st, s1 = np.cos(tau), np.sin(tau), 2.0 * np.cos(2.0 * tau - val)
        d = _dither_axis(q, ct, st)
        u = g[0] * d[0] + g[1] * d[1] + g[2] * d[2]
        F1 = _stack(f1_rows(q, yb - ya, ct, st, s1) + [fb0 * u, fb1 * u])
        if not order_one:
            return F1, None
        zero = np.zeros(np.shape(tau))
        H = hess(p.tolist())
        Hd = [row[0] * d[0] + row[1] * d[1] + row[2] * d[2] for row in H]
        v = 0.5 * (d[0] * Hd[0] + d[1] * Hd[1] + d[2] * Hd[2])
        s2 = 2.0 * u * np.sin(2.0 * tau - val)
        F2 = [s2 * q[0], s2 * q[1], s2 * q[2]] + [zero] * 9 + [fb0 * v, fb1 * v]
        return F1, _stack(F2)

    def full(omega: float) -> Callable[[float, list], list]:
        sqrt_w = float(np.sqrt(omega))

        def rhs(t: float, s: list) -> list:
            # the frame columns are q1 = (a0, a1, a2), q2 = (b0, ...), q3 = (c0, ...)
            a0, a1, a2, b0, b1, b2, c0, c1, c2, ya, yb = s[3:]
            center = s[0:3]
            val = c(center)
            g0, g1, g2 = grad(center)
            tau = omega * t
            ct, st = math.cos(tau), math.sin(tau)
            s1 = 2.0 * math.cos(2.0 * tau - val)
            # dither axis d = ct q2 + st q3, steering axis v = ct q3 - st q2
            d0, d1, d2 = ct * b0 + st * c0, ct * b1 + st * c1, ct * b2 + st * c2
            v0, v1, v2 = ct * c0 - st * b0, ct * c1 - st * b1, ct * c2 - st * b2
            u = g0 * d0 + g1 * d1 + g2 * d2
            (h00, h01, h02), (h10, h11, h12), (h20, h21, h22) = hess(center)
            e0 = h00 * d0 + h01 * d1 + h02 * d2
            e1 = h10 * d0 + h11 * d1 + h12 * d2
            e2 = h20 * d0 + h21 * d1 + h22 * d2
            hv = 0.5 * (d0 * e0 + d1 * e1 + d2 * e2)
            s2 = 2.0 * u * math.sin(2.0 * tau - val)
            gain = yb - ya
            z0, z1 = ya - val, yb - val
            return [
                sqrt_w * (s1 * a0) + s2 * a0,
                sqrt_w * (s1 * a1) + s2 * a1,
                sqrt_w * (s1 * a2) + s2 * a2,
                sqrt_w * (gain * (v1 * a2 - v2 * a1)) + 0.0,
                sqrt_w * (gain * (v2 * a0 - v0 * a2)) + 0.0,
                sqrt_w * (gain * (v0 * a1 - v1 * a0)) + 0.0,
                sqrt_w * (gain * (v1 * b2 - v2 * b1)) + 0.0,
                sqrt_w * (gain * (v2 * b0 - v0 * b2)) + 0.0,
                sqrt_w * (gain * (v0 * b1 - v1 * b0)) + 0.0,
                sqrt_w * (gain * (v1 * c2 - v2 * c1)) + 0.0,
                sqrt_w * (gain * (v2 * c0 - v0 * c2)) + 0.0,
                sqrt_w * (gain * (v0 * c1 - v1 * c0)) + 0.0,
                (sqrt_w * (fb0 * u) + omega * (0.0 + (z1 - z0))) + fb0 * hv,
                (sqrt_w * (fb1 * u) + omega * (0.0 - z1)) + fb1 * hv,
            ]

        return rhs

    def df1_dy(x: np.ndarray, y: np.ndarray, tau) -> np.ndarray:
        ct = np.cos(tau)
        zero = np.zeros_like(ct)
        cr = np.array([zero, zero, zero] + _frame_turn(x[3:12].tolist(), ct, np.sin(tau))).T
        return np.stack([-cr, cr], axis=-1)

    def dg1_dy(x: np.ndarray, y: np.ndarray, tau) -> np.ndarray:
        return np.zeros(np.shape(tau) + (2, 2))

    return OscillatorySystemSpec(
        n=12,
        m=2,
        T=2.0 * np.pi,
        A=A,
        phi0=phi0,
        f1=_terms_view(terms, 0, slice(0, 12)),
        f2=_terms_view(terms, 1, slice(0, 12)),
        g1=_terms_view(terms, 0, slice(12, 14)),
        g2=_terms_view(terms, 1, slice(12, 14)),
        dphi0=dphi0,
        df1_dy=df1_dy,
        dg1_dy=dg1_dy,
        terms=terms,
        full=full,
    )
