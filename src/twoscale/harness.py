"""Verification harness: full-versus-averaged runs, frequency sweeps,
boundary-layer fits, and practical-stability probes.

Runs on the (frequency, initial condition) grid are independent of each
other; they are executed one at a time in a fixed order so repeated
invocations are bit-identical.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .numkit import TimeGrid, integrate_rk4
from .seeker import (
    ScalarField,
    SeekerConfig,
    averaged_seeker_field,
    initial_state,
    simulate_seeker,
)
from .system import OscillatorySystemSpec, assemble_full_field

__all__ = [
    "RunRecord",
    "run_compare",
    "SweepReport",
    "sweep_convergence",
    "LayerFit",
    "fit_boundary_layer",
    "shell_directions",
    "aligned_frame",
    "ProbeRun",
    "StabilityProbeReport",
    "probe_seeker_stability",
    "AveragedProbeReport",
    "probe_averaged_stability",
]


@dataclass
class RunRecord:
    """One full-versus-averaged comparison at a fixed frequency.

    The deviation and layer series are kept at full step resolution; a
    failed run, one that diverged, has none and its blowup_time set.
    """

    omega: float
    t_f: float
    times: np.ndarray
    x_dev: np.ndarray
    z_norm: np.ndarray
    blowup_time: float | None = None

    @property
    def max_dev(self) -> float:
        if self.x_dev.size == 0:
            return float("inf")
        return float(np.max(self.x_dev))


def _interp_rows(t_query: np.ndarray, t_data: np.ndarray, rows: np.ndarray) -> np.ndarray:
    out = np.empty((t_query.shape[0], rows.shape[1]))
    for j in range(rows.shape[1]):
        out[:, j] = np.interp(t_query, t_data, rows[:, j])
    return out


def run_compare(
    spec: OscillatorySystemSpec,
    reference: tuple[np.ndarray, np.ndarray],
    x0: np.ndarray,
    y0: np.ndarray,
    omega: float,
    t_f: float,
    steps_per_period: int,
) -> RunRecord:
    """Integrate the full system from (x0, y0) and compare it with a
    given averaged path.

    reference is the averaged run as (times, states), the pair
    integrate_rk4 returns; it is interpolated onto the full run's times.
    The full run resolves the fast phase with steps_per_period RK4 steps
    per t-period T/omega.  A diverging full run is recorded as failed
    with its blow-up time rather than raised.
    """
    if not (np.isfinite(omega) and omega > 0.0):
        raise ConfigurationError(f"omega must be positive and finite, got {omega}")
    if steps_per_period < 8:
        raise ConfigurationError(f"steps_per_period must be >= 8, got {steps_per_period}")

    grid = TimeGrid.spanning(0.0, t_f, (spec.T / omega) / steps_per_period)
    v0 = spec.pack(np.asarray(x0, dtype=float), np.asarray(y0, dtype=float))

    try:
        times, states = integrate_rk4(assemble_full_field(spec, omega), v0.tolist(), grid)
    except DivergenceError as err:
        empty = np.empty((0,))
        return RunRecord(
            omega=omega, t_f=t_f, times=empty, x_dev=empty, z_norm=empty, blowup_time=err.time,
        )

    x_avg_full = _interp_rows(times, *reference)

    x_full = states[:, : spec.n]
    y_full = states[:, spec.n :]
    x_dev = np.max(np.abs(x_full - x_avg_full), axis=1)
    dz = y_full - spec.phi0(x_full)
    z_norm = np.sqrt(np.vecdot(dz, dz))
    return RunRecord(omega=omega, t_f=t_f, times=times, x_dev=x_dev, z_norm=z_norm)


@dataclass
class LayerFit:
    """Log-linear fit of the fast transient ||y - phi0(x)||.

    rate is normalized by the run's omega: the transient is modeled as
    gamma * z(0) * exp(-rate * omega * t) over the window ending at the
    first drop below 5% of z(0).
    """

    rate: float
    gamma: float
    n_points: int
    t_end: float


def fit_boundary_layer(record: RunRecord) -> LayerFit:
    """Fit the initial fast-transient decay rate from a run record.

    The fit window needs at least 10 samples before the drop below 5%.
    """
    if record.blowup_time is not None:
        raise ConfigurationError("cannot fit a boundary layer on a failed run")
    t = record.times
    z = record.z_norm
    z0 = float(z[0])
    if not z0 > 0.0:
        raise ConfigurationError("initial layer offset is zero; nothing to fit")
    below = np.nonzero(z < 0.05 * z0)[0]
    end = int(below[0]) + 1 if below.size > 0 else z.shape[0]
    if end < 10:
        raise ConfigurationError(
            f"transient too short to fit: {end} samples before the drop, need 10"
        )
    tw = record.omega * (t[:end] - t[0])
    logs = np.log(np.maximum(z[:end], 1e-300))
    slope, intercept = np.polyfit(tw, logs, 1)
    return LayerFit(
        rate=float(-slope),
        gamma=float(np.exp(intercept) / z0),
        n_points=end,
        t_end=float(t[end - 1]),
    )


@dataclass
class SweepReport:
    """Deviation-versus-frequency sweep with its log-log slope fit."""

    omegas: list[float]
    max_devs: list[float]
    slope: float
    intercept: float
    strictly_decreasing: bool
    layer_rates: list[float | None]
    layer_gammas: list[float | None]
    t_f: float

    def as_dict(self) -> dict:
        return asdict(self)


def sweep_convergence(
    spec: OscillatorySystemSpec,
    averaged: Callable[[float, list], list],
    x0: np.ndarray,
    y0: np.ndarray,
    omegas: Sequence[float],
    t_f: float,
    steps_per_period: int,
    avg_steps: int,
) -> SweepReport:
    """Run the full-versus-averaged comparison across a frequency ladder.

    Every rung starts the full system from (x0, y0); the decomposition is
    frequency-free, so one spec serves the whole ladder, and so does one
    averaged path: averaged(t, x) is integrated once from x0 over t_f in
    avg_steps RK4 steps, and every rung compares against that run.  Both
    step on floats: averaged takes and returns a list of n floats.
    Requires at least four strictly increasing frequencies so the slope
    fit means something, and a spec with full; every setting is checked
    before any run.  A run whose layer fit is degenerate reports None
    for its rate; a diverging full run reports an infinite deviation.
    """
    omegas = [float(w) for w in omegas]
    # checked before any run, so a bad setting costs no averaged or full run;
    # building each rung's field refuses a bad omega and a spec without full
    for w in omegas:
        assemble_full_field(spec, w)
    if len(omegas) < 4:
        raise ConfigurationError(f"need at least 4 frequencies, got {len(omegas)}")
    if any(b <= a for a, b in zip(omegas, omegas[1:])):
        raise ConfigurationError("frequencies must be strictly increasing")
    if avg_steps < 1:
        raise ConfigurationError(f"avg_steps must be >= 1, got {avg_steps}")
    if steps_per_period < 8:
        raise ConfigurationError(f"steps_per_period must be >= 8, got {steps_per_period}")
    # every rung's grid: the lowest refuses a short t_f, the highest a tiny step
    for w in omegas:
        TimeGrid.spanning(0.0, t_f, (spec.T / w) / steps_per_period)

    avg_grid = TimeGrid(t0=0.0, dt=t_f / avg_steps, n_steps=avg_steps)
    reference = integrate_rk4(averaged, np.asarray(x0, dtype=float).tolist(), avg_grid)
    max_devs: list[float] = []
    layer_rates: list[float | None] = []
    layer_gammas: list[float | None] = []
    for w in omegas:
        record = run_compare(
            spec, reference, x0, y0, w, t_f, steps_per_period=steps_per_period,
        )
        max_devs.append(record.max_dev)
        try:
            fit = fit_boundary_layer(record)
        except ConfigurationError:
            fit = None
        layer_rates.append(None if fit is None else fit.rate)
        layer_gammas.append(None if fit is None else fit.gamma)

    logs_w = np.log(omegas)
    logs_e = np.log(np.maximum(max_devs, 1e-300))
    slope, intercept = np.polyfit(logs_w, logs_e, 1)
    decreasing = all(b < a for a, b in zip(max_devs, max_devs[1:]))
    return SweepReport(
        omegas=omegas,
        max_devs=max_devs,
        slope=float(slope),
        intercept=float(intercept),
        strictly_decreasing=decreasing,
        layer_rates=layer_rates,
        layer_gammas=layer_gammas,
        t_f=float(t_f),
    )


def shell_directions() -> np.ndarray:
    """Eight deterministic unit directions: the axes and two diagonals."""
    dirs = [
        [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
        [0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
    ]
    diag = 1.0 / np.sqrt(3.0)
    dirs.append([diag, diag, diag])
    dirs.append([-diag, -diag, -diag])
    return np.array(dirs)


def aligned_frame(g: np.ndarray) -> np.ndarray:
    """Rotation whose first column points along g, completed deterministically.

    The probes start every run with the heading aligned to the local
    ascent direction; a zero gradient falls back to the identity.  The
    remaining columns come from projecting out the least-aligned
    coordinate axis, so the construction has no arbitrary choices.
    """
    g = np.asarray(g, dtype=float)
    norm = float(np.linalg.norm(g))
    if norm < 1e-12:
        return np.eye(3)
    q1 = g / norm
    helper = np.zeros(3)
    helper[int(np.argmin(np.abs(q1)))] = 1.0
    q2 = helper - float(helper @ q1) * q1
    q2 /= np.linalg.norm(q2)
    q3 = np.cross(q1, q2)
    return np.column_stack([q1, q2, q3])


@dataclass
class ProbeRun:
    """Outcome of one probe trajectory."""

    delta: float
    omega: float
    phase_index: int
    direction_index: int
    sup_dist: float
    sup_z: float
    tail_dist: float
    tail_z: float
    entry_time: float | None
    diverged: bool


@dataclass
class StabilityProbeReport:
    """Grid verdicts for the three practical-stability items.

    Quantifiers are approximated on the given grids: eight shell
    directions, three start phases per frequency, and sampled time.  For
    each shell radius the report lists the smallest probed frequency at
    which every panel run satisfies the item, or None.
    """

    eps_x: float
    eps_z: float
    deltas: list[float]
    omegas: list[float]
    horizon: float
    entry_deadline: float
    runs: list[ProbeRun]
    containment_omega: dict[float, float | None]
    entry_omega: dict[float, float | None]
    bounded_omega: dict[float, float | None]

    def as_dict(self) -> dict:
        """The fields as plain data; each verdict map becomes a list of
        {"delta", "omega"} entries in radius order (JSON keys are strings)."""
        out = asdict(self)
        for key in ("containment_omega", "entry_omega", "bounded_omega"):
            out[key] = [{"delta": k, "omega": v} for k, v in sorted(out[key].items())]
        return out


def _distinct(key: str, values: list) -> list:
    """values, refused if empty or if one repeats: it would run twice for one verdict."""
    if not values:
        raise ConfigurationError(f"{key} must be non-empty")
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ConfigurationError(f"{key} must not repeat, got {v!r} twice")
    return values


def _shell_radii(deltas: Sequence[float]) -> list[float]:
    """The probe's start radii as floats, checked before any run.  A zero
    radius starts on the optimum and a negative one repeats a shell."""
    deltas = [float(d) for d in deltas]
    for d in deltas:
        if not np.isfinite(d):
            raise ConfigurationError(f"deltas must be finite, got {d}")
        if d <= 0.0:
            raise ConfigurationError(f"deltas must be positive, got {d}")
    return _distinct("deltas", deltas)


def _shell_starts(fld: ScalarField, delta: float) -> list[tuple]:
    """Per shell direction on the radius delta around the source: p0, the
    frame R0 heading up the local gradient, and initial_state's packed
    start, which refuses a non-finite c(p0) (whose grad may overflow)."""
    starts = []
    for d in shell_directions():
        p0 = fld.p_star + delta * d
        with np.errstate(over="ignore", invalid="ignore"):
            R0 = aligned_frame(fld.grad(p0))
        starts.append((p0, R0, initial_state(fld, p0, R0)))
    return starts


def _entry_time(times: np.ndarray, dist: np.ndarray, eps: float) -> float | None:
    """First sample time after which the distance never exceeds eps."""
    above = np.nonzero(dist > eps)[0]
    if above.size == 0:
        return float(times[0])
    last = int(above[-1])
    if last + 1 >= times.shape[0]:
        return None
    return float(times[last + 1])


def probe_seeker_stability(
    fld: ScalarField,
    eps_x: float,
    eps_z: float,
    deltas: Sequence[float],
    omegas: Sequence[float],
    horizon: float,
    entry_deadline: float | None,
    steps_per_fast_period: int,
) -> StabilityProbeReport:
    """Probe the closed-loop seeker on a (radius, frequency) grid.

    Initial positions sit on the shell of each radius around the source,
    with an aligned frame and quasi-steady filter; each run is repeated
    with start-time offsets of 0, 1/4 and 1/2 of the frame period.
    Containment checks the whole run, entry checks the tail after the
    deadline (horizon / 2 when entry_deadline is None), and boundedness
    asks only that nothing diverged.
    """
    deltas = _shell_radii(deltas)
    omegas = _distinct("omegas", [float(w) for w in omegas])
    if entry_deadline is None:
        entry_deadline = horizon / 2.0
    if not 0.0 < entry_deadline <= horizon:
        raise ConfigurationError("entry_deadline must lie in (0, horizon]")
    # every frequency, start and flight grid is checked here, before the first flight
    configs = [SeekerConfig(omega=w, steps_per_fast_period=steps_per_fast_period) for w in omegas]
    shells = [_shell_starts(fld, delta) for delta in deltas]
    offsets = [[frac * (2.0 * np.pi / c.omega) for frac in (0.0, 0.25, 0.5)] for c in configs]
    for config, t0s in zip(configs, offsets):
        for t0 in t0s:
            TimeGrid.spanning(t0, horizon, config.dt)

    runs: list[ProbeRun] = []
    for delta, starts in zip(deltas, shells):
        for config, t0s in zip(configs, offsets):
            for phase_index, t0 in enumerate(t0s):
                for direction_index, (p0, R0, _) in enumerate(starts):
                    try:
                        traj = simulate_seeker(config, fld, p0, R0, horizon, t0=t0)
                    except DivergenceError:
                        stats = (float("inf"),) * 4 + (None, True)
                    else:
                        rel_times = traj.times - traj.times[0]
                        dist = np.linalg.norm(traj.states[:, 0:3] - fld.p_star, axis=1)
                        center = traj.center_values(fld)
                        z = np.linalg.norm(
                            traj.states[:, 12:14] - np.stack([center, center], axis=1), axis=1)
                        tail = rel_times >= entry_deadline
                        stats = (
                            float(np.max(dist)), float(np.max(z)),
                            float(np.max(dist[tail])) if np.any(tail) else float("inf"),
                            float(np.max(z[tail])) if np.any(tail) else float("inf"),
                            _entry_time(rel_times, dist, eps_x), False,
                        )
                    runs.append(ProbeRun(delta, config.omega, phase_index, direction_index, *stats))

    def contained(r: ProbeRun) -> bool:
        return not r.diverged and r.sup_dist <= eps_x and r.sup_z <= eps_z

    def entered(r: ProbeRun) -> bool:
        return (not r.diverged and r.entry_time is not None
                and r.entry_time <= entry_deadline and r.tail_z <= eps_z)

    def smallest(passes: Callable[[ProbeRun], bool]) -> dict[float, float | None]:
        """Per radius, the smallest frequency at which every run passes."""
        return {
            delta: min((w for w in omegas if all(
                passes(r) for r in runs if r.delta == delta and r.omega == w)), default=None)
            for delta in deltas
        }

    return StabilityProbeReport(
        eps_x=float(eps_x),
        eps_z=float(eps_z),
        deltas=deltas,
        omegas=omegas,
        horizon=float(horizon),
        entry_deadline=float(entry_deadline),
        runs=runs,
        containment_omega=smallest(contained),
        entry_omega=smallest(entered),
        bounded_omega=smallest(lambda r: not r.diverged),
    )


@dataclass
class AveragedProbeReport:
    """Panel verdicts for the averaged closed loop (frequency-free).

    Tracks entry into a target ball and the height-deficit monotonicity
    along each run.
    """

    deltas: list[float]
    horizon: float
    entry_radius: float
    runs: list[dict]
    all_entered: bool
    max_vc_step_increase: float

    def as_dict(self) -> dict:
        return asdict(self)


def probe_averaged_stability(
    fld: ScalarField,
    deltas: Sequence[float],
    horizon: float,
    entry_radius: float,
    dt: float,
) -> AveragedProbeReport:
    """Run the averaged seeker from shell panels and check convergence.

    Every run starts with an aligned frame; the report carries entry
    times into the target ball, the final gradient norm, and the largest
    single-step increase of the height deficit (which the averaged flow
    should never raise beyond integration noise; NaN if any run's is).

    Each start is integrated alone, in report order, on one time grid of
    horizon / dt steps, rounded (TimeGrid.spanning).  The first run that
    reaches a non-finite state raises DivergenceError for the probe.
    """
    deltas = _shell_radii(deltas)
    if not (np.isfinite(entry_radius) and entry_radius > 0.0):
        raise ConfigurationError(f"entry_radius must be positive and finite, got {entry_radius}")
    field = averaged_seeker_field(fld)
    grid = TimeGrid.spanning(0.0, horizon, dt)

    starts = [(delta, i, s0[:12])
              for delta in deltas for i, (_, _, s0) in enumerate(_shell_starts(fld, delta))]
    times = grid.times()
    states = np.stack([integrate_rk4(field, s0, grid)[1] for _, _, s0 in starts], axis=1)
    positions = states[:, :, 0:3]
    dist = np.linalg.norm(positions - fld.p_star, axis=2)
    # the height deficit V_c = c(p_star) - c(p), with c taken on every run at once
    vc = float(fld.c(fld.p_star)) - fld.c(np.moveaxis(positions, -1, 0))
    max_inc = np.max(np.diff(vc, axis=0), axis=0)
    final_grads = np.transpose(fld.grad(positions[-1].T))

    runs = [{
        "delta": delta,
        "direction_index": direction_index,
        "entry_time": _entry_time(times, dist[:, b], entry_radius),
        "final_dist": float(dist[-1, b]),
        "final_grad_norm": float(np.linalg.norm(final_grads[b])),
        "max_vc_step_increase": float(max_inc[b]),
    } for b, (delta, direction_index, _) in enumerate(starts)]
    return AveragedProbeReport(
        deltas=deltas,
        horizon=float(horizon),
        entry_radius=float(entry_radius),
        runs=runs,
        all_entered=all(run["entry_time"] is not None for run in runs),
        max_vc_step_increase=float(np.max(np.maximum(max_inc, 0.0))),
    )
