"""Tests for the block contract: spec callables on a block of states.

Oracles: the same callables on one state at a time (a block's row b must
equal the call on state b bit for bit), the per-coordinate central
difference loop that jacobian_fd replaced, and counts of the sensed
field's calls, which a block call makes once for all its states.
"""

import dataclasses

import numpy as np
import pytest

from twoscale.averaging import build_b, build_bundle, residual_bvp
from twoscale.numkit import DEFAULT_FD_STEP, jacobian_fd
from twoscale.seeker import as_system_spec, builtin_fields
from twoscale.so3 import embed, exp_so3


def random_block(fld, rng, B):
    """B seeker slow states: random centers and frames, the center p = 0
    (where the quadratic gradient is -0.0), and a frame whose surge axis
    is the gradient; the fixed rows are cycled in when B allows."""
    rows = []
    for b in range(B):
        p = rng.uniform(-5.0, 5.0, size=3)
        R = exp_so3(rng.uniform(-np.pi, np.pi, size=3))
        if b % 3 == 1:
            p = np.zeros(3)
        elif b % 3 == 2:
            q1 = fld.grad(p) / np.linalg.norm(fld.grad(p))
            q2 = np.cross(q1, [0.3, -0.5, 0.8])
            q2 /= np.linalg.norm(q2)
            R = np.column_stack([q1, q2, np.cross(q1, q2)])
        rows.append(np.concatenate([p, embed(R)]))
    return np.array(rows)


def rows_equal_single_calls(call, xs, ys):
    """call on the block equals call on each row, byte for byte and in
    shape; returns the block value."""
    block = np.asarray(call(xs, ys))
    assert block.shape[0] == xs.shape[0]
    for b in range(xs.shape[0]):
        single = np.asarray(call(xs[b], ys[b]))
        assert block[b].shape == single.shape
        assert block[b].tobytes() == np.ascontiguousarray(single).tobytes()
    return block


# at B = 2, 3 and 9 a (B, k) block of the filter pair, the centers or the
# frames would also unpack as k coordinate arrays: a reader that skips its
# transpose shows there only as rows unequal to their single-state calls
@pytest.mark.parametrize("B", [1, 2, 3, 8, 9, 24])
@pytest.mark.parametrize("name", ["log", "quadratic"])
def test_seeker_spec_block_rows_equal_single_state_calls(name, B):
    fld = builtin_fields()[name]
    spec = as_system_spec(fld)
    rng = np.random.default_rng(101 + B)
    xs = random_block(fld, rng, B)
    taus = (spec.T / 64) * np.arange(64) + 0.3
    on = spec.phi0(xs)
    assert on.shape == (B, 2)
    # on the manifold, off it, and a block that mixes the two (the turn
    # rows are +0.0 where the gain is zero and formed where it is not)
    off = on + rng.standard_normal((B, 2))
    mixed = np.where((np.arange(B) % 2 == 0)[:, None], on, off)
    for ys in (on, off, mixed):
        rows_equal_single_calls(lambda x, y: spec.phi0(x), xs, ys)
        dphi0 = rows_equal_single_calls(lambda x, y: spec.dphi0(x), xs, ys)
        assert dphi0.shape == (B, 2, 12)
        F1 = rows_equal_single_calls(lambda x, y: spec.terms(x, y, taus, False)[0], xs, ys)
        assert F1.shape == (B, 64, 14)
        f1 = rows_equal_single_calls(lambda x, y: spec.f1(x, y, taus), xs, ys)
        assert np.array_equal(f1, F1[..., :12])
    # the source's memo must tell a block of one state from that state
    b1 = build_b(spec, 1)
    assert rows_equal_single_calls(lambda x, y: b1.values_at(x, taus), xs, on).shape == (B, 64, 2)


def loop_jacobian(f, x):
    """The central difference one coordinate at a time, f called on one
    state per evaluation: the reference for jacobian_fd's one block call."""
    out = None
    for i in range(x.shape[0]):
        hi = DEFAULT_FD_STEP * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += hi
        xm[i] -= hi
        col = (np.asarray(f(xp), dtype=float) - np.asarray(f(xm), dtype=float)) / (2.0 * hi)
        if out is None:
            out = np.empty((col.shape or (1,)) + x.shape)
        out[..., i] = col
    return out


def counted(f):
    calls = []

    def wrapped(x):
        calls.append(np.shape(x))
        return f(x)

    return wrapped, calls


def _b1_case():
    spec = as_system_spec(builtin_fields()["log"])
    b1 = build_b(spec, 1)
    taus = (spec.T / 128) * np.arange(128)
    x = random_block(builtin_fields()["log"], np.random.default_rng(7), 1)[0]
    return lambda w: b1.values_at(w, taus), x


def _maps():
    M = np.array([[1.0, 2.0, -1.0], [0.5, -3.0, 4.0]])
    taus = np.linspace(0.0, 6.0, 7)

    def array_valued(x):
        x0, x1 = x[..., 0, None], x[..., 1, None]
        return np.stack([x0 * np.cos(taus) + x1**2, x0 * x1 * np.sin(taus)], axis=-1)

    return {
        "linear": (lambda x: x[..., 0, None] * M[:, 0] + x[..., 1, None] * M[:, 1]
                   + x[..., 2, None] * M[:, 2], np.array([0.3, -1.2, 2.0])),
        "scalar": (lambda x: np.vecdot(x, x) * x[..., 0], np.array([0.7, -2.5])),
        "array": (array_valued, np.array([0.4, -1.3])),
        "seeker-b1": _b1_case(),
    }


@pytest.mark.parametrize("name", ["linear", "scalar", "array", "seeker-b1"])
def test_jacobian_fd_equals_the_per_coordinate_loop_with_one_call(name):
    f, x = _maps()[name]
    reference = loop_jacobian(f, x)
    g, calls = counted(f)
    J = jacobian_fd(g, x)
    n = x.shape[0]
    assert calls == [(2 * n, n)]
    assert J.flags.c_contiguous
    assert J.shape == reference.shape
    assert J.tobytes() == reference.tobytes()


def counting_field(fld):
    """fld with its c and grad counted, one count per call of either."""
    counts = {"c": 0, "grad": 0}

    def count(name, fn):
        def wrapped(p):
            counts[name] += 1
            return fn(p)

        return wrapped

    return dataclasses.replace(fld, c=count("c", fld.c), grad=count("grad", fld.grad)), counts


def test_one_fbar_and_one_phi2_residual_read_the_field_a_few_times():
    # each slow-state Jacobian reads c and grad once for its 24 perturbed
    # states; a per-state difference read c 52 times per fbar, and c and
    # grad 50 times each per phi2 residual
    fld, counts = counting_field(builtin_fields()["log"])
    spec = as_system_spec(fld)
    x = random_block(fld, np.random.default_rng(3), 1)[0]
    fbar_bundle = build_bundle(spec, n_panels=256)
    bvp_bundle = build_bundle(spec, n_panels=512)
    reads = [
        lambda: fbar_bundle.averaged.fbar(x),
        lambda: residual_bvp(bvp_bundle.phi2, spec.A, bvp_bundle.phi2.b, spec.T, x=x),
    ]
    for read in reads:
        counts.update(c=0, grad=0)
        read()
        assert 0 < counts["c"] <= 8 and 0 < counts["grad"] <= 8, counts
