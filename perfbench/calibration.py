"""Host-speed calibration for the benchmark's timings.

The sandbox shares its cores with other tenants, and its speed drifts by
up to a factor of two over seconds to minutes.  To keep run-to-run spread
below the benchmark's bounds, every timed operation is bracketed by a
fixed reference kernel, and the operation's time is rescaled to the
kernel's nominal speed:

    calibrated = measured * REFERENCE_NOMINAL_S / reference_time

The kernel uses numpy only, never ``twoscale``, so no change to the
package can move it: a program that gets twice as fast reads twice as
fast.  Its mix follows the workloads': an interpreter-bound loop of small
array operations (like the right-hand sides and per-row loops), then a
gathered contraction over a few megabytes (like a corrector grid sweep).
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's time on an unloaded core of the reference host
# (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4)
REFERENCE_NOMINAL_S = 0.020

_STEPS = 250
_N = 256


def _small_rhs(t: float, s: np.ndarray) -> np.ndarray:
    p = s[0:3]
    q = s[3:6]
    a = np.cos(t) * q + np.sin(t) * p
    v = float(a @ a)
    return np.concatenate([np.array([q[1], -q[0], q[2]]), -p * np.sqrt(1.0 + v), -0.1 * s[6:14]])


def _reference_work() -> float:
    x = np.linspace(0.1, 1.4, 14)
    dt = 1e-3
    t = 0.0
    for _ in range(_STEPS):
        k1 = _small_rhs(t, x)
        k2 = _small_rhs(t + 0.5 * dt, x + (0.5 * dt) * k1)
        k3 = _small_rhs(t + 0.5 * dt, x + (0.5 * dt) * k2)
        k4 = _small_rhs(t + dt, x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        t += dt
    kernel = np.linspace(-1.0, 1.0, _N * 4).reshape(_N, 2, 2)
    source = np.linspace(0.0, 1.0, _N * 2).reshape(_N, 2)
    shift = (np.arange(_N)[:, None] + np.arange(_N)[None, :]) % _N
    vals = np.einsum("lij,lkj->ki", kernel, source[shift])
    return float(x.sum() + vals.sum())


def reference_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    _reference_work()
    return time.perf_counter() - t0
