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
from .numkit import TimeGrid, integrate_rk4, jacobian_fd
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
    "FILTER_C",
]

# band-pass filter realization: dy = w (A y + B u), output C y
FILTER_A = np.array([[-1.0, 1.0], [0.0, -1.0]])
FILTER_B = np.array([0.0, 1.0])
FILTER_C = np.array([-1.0, 1.0])

_E1 = np.array([1.0, 0.0, 0.0])
_NEG_EYE3 = -np.eye(3)  # the quadratic field's Hessian; handed out only as copies


@dataclass(frozen=True)
class ScalarField:
    """Sensed scalar field with its critical point and derivatives.

    c and grad take a point (3,) or a block (B, 3) of points, one per row;
    the built-in fields do both through one np.vecdot(p, p) formula, equal
    bit for bit per row.  hess takes one point.

    kappa, when set, is a global quadratic-growth constant:
    c(p_star) - c(p) <= kappa * ||grad c(p)||^2 everywhere.  None means
    no such bound holds (fields with saturating tails).
    """

    name: str
    c: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    p_star: np.ndarray
    hess: Callable[[np.ndarray], np.ndarray] | None = None
    kappa: float | None = None

    def hessian(self, p: np.ndarray) -> np.ndarray:
        if self.hess is not None:
            return np.asarray(self.hess(p), dtype=float)
        return jacobian_fd(self.grad, p)


def builtin_fields() -> dict[str, ScalarField]:
    """The two reference fields used across the test problems."""

    def log_c(p: np.ndarray):
        return -np.log1p(0.5 * np.vecdot(p, p))

    def log_grad(p: np.ndarray) -> np.ndarray:
        return -p / (1.0 + 0.5 * np.vecdot(p, p))[..., None]

    def log_hess(p: np.ndarray) -> np.ndarray:
        s = 1.0 + 0.5 * float(p @ p)
        return -np.eye(3) / s + np.outer(p, p) / (s * s)

    def quad_c(p: np.ndarray):
        return -0.5 * np.vecdot(p, p)

    def quad_grad(p: np.ndarray) -> np.ndarray:
        return -p

    def quad_hess(p: np.ndarray) -> np.ndarray:
        return _NEG_EYE3.copy()

    return {
        "log": ScalarField(
            name="log",
            c=log_c,
            grad=log_grad,
            hess=log_hess,
            p_star=np.zeros(3),
            kappa=None,
        ),
        "quadratic": ScalarField(
            name="quadratic",
            c=quad_c,
            grad=quad_grad,
            hess=quad_hess,
            p_star=np.zeros(3),
            kappa=0.5,
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
    def sensor_radius(self) -> float:
        return self.eps

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

    Quasi-steady means y = -A^{-1} B c(p0) = (c(p0), c(p0)), which removes
    the initial fast transient.  A start that cannot be flown, a
    non-finite y0 or field value c(p0), raises ConfigurationError.
    """
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (3,):
        raise DimensionError(f"p0 must have shape (3,), got {p0.shape}")
    if not np.all(np.isfinite(p0)):
        raise ConfigurationError(f"p0 must be finite, got {p0.tolist()}")
    R0 = np.asarray(R0, dtype=float)
    res = manifold_residual(embed(R0))
    if not res < 1e-6:
        raise ManifoldError(f"R0 is not a rotation (residual {res:.3g})")
    with np.errstate(over="ignore", invalid="ignore"):
        c0 = float(fld.c(p0))
    if not math.isfinite(c0):
        raise ConfigurationError(f"c(p0) must be finite, got {c0} at p0 = {p0.tolist()}")
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
    same order.  The reading c stays one call on a (3,) array: numpy's
    vecdot and log1p round differently from their float transcriptions.
    """
    w = config.omega
    sqw = float(np.sqrt(w))
    radius = config.sensor_radius
    amp = 2.0 * sqw
    c = fld.c

    def rhs(t: float, s: list) -> list:
        # the frame columns are q1 = (a0, a1, a2), q2 = (b0, ...), q3 = (c0, ...)
        p0, p1, p2, a0, a1, a2, b0, b1, b2, c0, c1, c2, ya, yb = s
        tau = w * t
        ct = math.cos(tau)
        st = math.sin(tau)
        # the sensor rides the dither axis cos(tau) q2 + sin(tau) q3
        val = float(c(np.array([
            p0 + radius * (ct * b0 + st * c0),
            p1 + radius * (ct * b1 + st * c1),
            p2 + radius * (ct * b2 + st * c2),
        ])))
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
) -> Callable[[float, np.ndarray], np.ndarray]:
    """Closed-loop right-hand side for the raw vehicle (p, R, y).

    The vehicle surges along its first body axis with the dithered
    speed, rolls about it at rate omega, and steers about the third body
    axis with the filtered reading.  The sensor rides the second body
    axis.

    This is cross_check's oracle for seeker_field, so it keeps its own
    formula and shares no helper with the rotating-frame right-hand side.
    """
    w = config.omega
    sqw = float(np.sqrt(w))
    radius = config.sensor_radius
    amp = 2.0 * sqw
    c = fld.c

    def rhs(t: float, s: np.ndarray) -> np.ndarray:
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
        return np.concatenate([dp, dr1, dr2, dr3, [dy0, dy1]])

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
    omega: float
    field_name: str

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
    Q = project_so3(np.array(s[3:12]).reshape(3, 3).T)
    return s[0:3] + Q.T.ravel().tolist() + s[12:14]


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
    projection is enabled.  stride thins the recording (the final state
    is always kept).  t0 sets the dither phase at the start.
    """
    if stride < 1:
        raise ConfigurationError(f"stride must be >= 1, got {stride}")
    s0 = initial_state(fld, p0, R0, y0=y0)
    grid = TimeGrid.spanning(t0, t_f, config.dt)
    n_steps = grid.n_steps
    post = _project_state if config.projection else None
    times, states = integrate_rk4(seeker_field(config, fld), s0.tolist(), grid, post_step=post)
    keep = np.arange(0, n_steps + 1, stride)
    if keep[-1] != n_steps:
        keep = np.append(keep, n_steps)
    return SeekerTrajectory(
        times=times[keep], states=states[keep], omega=config.omega, field_name=fld.name
    )


def averaged_seeker_field(fld: ScalarField) -> Callable[[float, np.ndarray], np.ndarray]:
    """Averaged closed loop on (p, q): ascend along the surge axis,
    turn the surge axis toward the gradient at a quarter rate.

    dp = (q1 . grad c) q1, and the frame rotates with world angular
    velocity (-u3 q2 + u2 q3) / 4 where ui = qi . grad c; equivalently
    dQ = Q hat(e1 x Q^T grad c) / 4.  The time argument is ignored (the
    average is autonomous).

    The state is one (12,) vector (p, frame columns) or a (B, 12) block
    of B such states, one per row; the result has the same shape.  Rows
    do not interact, and grad c is evaluated once for the whole block.

    The frame is one stack Q, Q[j, i] = component i of q_{j+1}, with the
    block axis last, so each step acts on all three columns at once; the
    cyclic shifts of (w x q)_i = w_{i+1} q_{i+2} - w_{i+2} q_{i+1} are
    slices of Q, and of w, wrapped once along the component axis.  Each
    product and left-to-right sum is that of u_j = q_j[0] g[0] +
    q_j[1] g[1] + q_j[2] g[2] and of cross3, so the result is the same
    bit for bit, signed zeros included; (Q * g).sum(axis=1) is not, as
    it flips the sign of zero outputs where grad c is -0.0.
    """
    grad = fld.grad

    def rhs(t: float, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if s.ndim not in (1, 2) or s.shape[-1] != 12:
            raise DimensionError(f"state must have shape (12,) or (B, 12), got {s.shape}")
        x = s.T
        Q = x[3:12].reshape((3, 3) + x.shape[1:])
        Qe = np.concatenate([Q, Q[:, :2]], axis=1)
        Qg = Q * grad(s[..., 0:3]).T
        u = Qg[:, 0] + Qg[:, 1] + Qg[:, 2]
        we = 0.25 * (u[1] * Qe[2] - u[2] * Qe[1])
        turn = we[1:4] * Qe[:, 2:5] - we[2:5] * Qe[:, 1:4]
        return np.concatenate([u[0] * Q[0], turn.reshape((9,) + x.shape[1:])]).T

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

    terms stacks the split's components; full(omega) is the full
    right-hand side of the same split, which assemble_full_field returns.
    It reads the state as floats once, evaluates c, grad and the Hessian
    once each, and forms every entry as the same products and sums in the
    same order as the generic assembly, sqrt(w) f1 + f2 and
    (sqrt(w) g1 + w A (y - phi0)) + g2, so the two agree bit for bit.
    The frame rows add F2's zeros too, which turns a -0.0 into +0.0; the
    layer term stays one numpy expression, because a float transcription
    of the 2x2 product can round a zero to the other sign.
    """
    grad = fld.grad
    c = fld.c
    hessian = fld.hessian
    A = FILTER_A.copy()
    b0, b1 = FILTER_B.tolist()

    def phi0(x: np.ndarray) -> np.ndarray:
        val = float(c(x[0:3]))
        return np.array([val, val])

    def dphi0(x: np.ndarray) -> np.ndarray:
        g = np.asarray(grad(x[0:3]), dtype=float)
        out = np.zeros((2, 12))
        out[0, 0:3] = g
        out[1, 0:3] = g
        return out

    trig_key = trig_val = None

    def phase_trig(tau, val: float):
        """cos tau, sin tau and 2 cos(2 tau - val) at a phase tau and center
        value val: floats through math for a float tau, arrays through numpy
        otherwise.  The arrays of the last (phases, val) pair are kept: a
        slow-state Jacobian evaluates one grid at one center value for 17
        of its 18 frame-coordinate evaluations in a row."""
        nonlocal trig_key, trig_val
        if isinstance(tau, float):
            return math.cos(tau), math.sin(tau), 2.0 * math.cos(2.0 * tau - val)
        tau = np.asarray(tau, dtype=float)
        key = (tau.shape, tau.tobytes(), val)
        if key != trig_key:
            trig_val = (np.cos(tau), np.sin(tau), 2.0 * np.cos(2.0 * tau - val))
            trig_key = key
        return trig_val

    def f1_rows(q: list, gain, ct, st, s1) -> list:
        """The 12 components of f1: the dithered surge s1 q1 and the
        filter-gain turn of the frame."""
        return [s1 * q[0], s1 * q[1], s1 * q[2]] + [gain * r for r in _frame_turn(q, ct, st)]

    def split(p: np.ndarray, q: list, gain, tau, order_one: bool):
        """F1 = (f1, g1) and F2 = (f2, g2) (None unless order_one) as
        component lists, and the center value c(p).  p is the center as
        an array, q the frame columns q1, q2, q3 as 9 floats and gain the
        filter output yb - ya.  Each component is one expression in tau,
        so a float tau gives floats through float arithmetic and K phases
        give (K,) arrays through the same expressions.  The center value,
        gradient, trig values and dither axis are shared by all four
        fields."""
        g = np.asarray(grad(p), dtype=float).tolist()
        val = float(c(p))
        ct, st, s1 = phase_trig(tau, val)
        d = _dither_axis(q, ct, st)
        u = g[0] * d[0] + g[1] * d[1] + g[2] * d[2]
        F1 = f1_rows(q, gain, ct, st, s1) + [b0 * u, b1 * u]
        if not order_one:
            return F1, None, val
        sin = math.sin if isinstance(tau, float) else np.sin
        zero = 0.0 if isinstance(tau, float) else np.zeros(np.shape(tau))
        H = hessian(p).tolist()
        Hd = [row[0] * d[0] + row[1] * d[1] + row[2] * d[2] for row in H]
        v = 0.5 * (d[0] * Hd[0] + d[1] * Hd[1] + d[2] * Hd[2])
        s2 = 2.0 * u * sin(2.0 * tau - val)
        F2 = [s2 * q[0], s2 * q[1], s2 * q[2]] + [zero] * 9 + [b0 * v, b1 * v]
        return F1, F2, val

    def f1(x: np.ndarray, y: np.ndarray, tau):
        """terms' f1 columns alone: no gradient, dither axis or g1."""
        ya, yb = y.tolist()
        ct, st, s1 = phase_trig(tau, float(c(x[0:3])))
        return np.array(f1_rows(x[3:12].tolist(), yb - ya, ct, st, s1)).T

    def terms(x: np.ndarray, y: np.ndarray, tau, order_one: bool = True):
        ya, yb = y.tolist()
        F1, F2, _ = split(x[0:3], x[3:12].tolist(), yb - ya, tau, order_one)
        return np.array(F1).T, (np.array(F2).T if order_one else None)

    def full(omega: float) -> Callable[[float, np.ndarray], np.ndarray]:
        sqrt_w = float(np.sqrt(omega))

        def rhs(t: float, v: np.ndarray) -> np.ndarray:
            s = v.tolist()
            F1, F2, val = split(v[0:3], s[3:12], s[13] - s[12], omega * t, True)
            la, lb = (omega * (A @ (v[12:14] - val))).tolist()
            return np.array(
                [sqrt_w * a + b for a, b in zip(F1[:12], F2[:12])]
                + [(sqrt_w * F1[12] + la) + F2[12], (sqrt_w * F1[13] + lb) + F2[13]]
            )

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
        f1=f1,
        f2=_terms_view(terms, 1, slice(0, 12)),
        g1=_terms_view(terms, 0, slice(12, 14)),
        g2=_terms_view(terms, 1, slice(12, 14)),
        dphi0=dphi0,
        df1_dy=df1_dy,
        dg1_dy=dg1_dy,
        terms=terms,
        full=full,
        name=f"seeker-{fld.name}",
    )
