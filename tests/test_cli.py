"""Tests for the command line.

Commands run in-process through main(argv) against temp directories; one
subprocess test covers `python -m twoscale.cli`.  Exit codes: 0
success, 1 invalid config, 2 divergence, 3 missed threshold.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twoscale import cli, harness
from twoscale.averaging import AveragedSystem
from twoscale.benchmarks import linear_benchmark
from twoscale.cli import DEFAULTS, _write_csv, _write_report, main
from twoscale.harness import SweepReport
from twoscale.seeker import averaged_seeker_field, builtin_fields, lyapunov_value_and_rate
from twoscale.so3 import embed, manifold_residual

LOG_C0 = -3.1354942159291497  # value of the log field at (6, 2, -2)


def strict_json(text):
    """json.loads refusing the bare NaN, Infinity and -Infinity tokens."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cmd(command, tmp_path, payload=None, out_name="out", quiet=True):
    argv = [command, "--out-dir", str(tmp_path / out_name)]
    if payload is not None:
        argv += ["--config", write_config(tmp_path, f"{command}.json", payload)]
    if quiet:
        argv.append("--quiet")
    return main(argv)


# ------------------------------------------------------------- config errors


def test_unknown_config_key_exits_1(tmp_path):
    code = run_cmd("simulate", tmp_path, {"omega": 4.0, "frequency": 8.0})
    assert code == 1


def test_malformed_config_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad), "--quiet"]) == 1
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2, 3]")
    assert main(["simulate", "--config", str(listy), "--quiet"]) == 1
    assert main(["simulate", "--config", str(tmp_path / "absent.json"), "--quiet"]) == 1


def test_simulate_rejects_bad_values(tmp_path):
    assert run_cmd("simulate", tmp_path, {"omega": 0.0}) == 1
    assert run_cmd("simulate", tmp_path, {"omega": -4.0}) == 1
    assert run_cmd("simulate", tmp_path, {"p0": [1.0, 2.0]}) == 1
    assert run_cmd("simulate", tmp_path, {"y0": "warm"}) == 1
    assert run_cmd("simulate", tmp_path, {"R0": [[1.0, 0.0], [0.0, 1.0]]}) == 1
    assert run_cmd("simulate", tmp_path, {"field": "gaussian"}) == 1


def test_sweep_rejects_bad_ladders_and_modes(tmp_path):
    quick = {"system": "linear", "t_f": 0.5, "steps_per_period": 16, "avg_steps": 50}
    assert run_cmd("sweep", tmp_path, {**quick, "omegas": [4.0, 8.0]}) == 1
    assert run_cmd("sweep", tmp_path, {**quick, "omegas": [8.0, 4.0, 16.0, 32.0]}) == 1
    assert run_cmd("sweep", tmp_path, {**quick, "y0": "warm"}) == 1
    assert run_cmd("sweep", tmp_path, {"system": "planar"}) == 1


@pytest.mark.parametrize("bad", [
    {"omegas": [8.0, 16.0, 32.0, float("inf")]},
    {"avg_steps": 0},
    {"avg_steps": -3},
    {"p0": [6.0, float("nan"), -2.0]},
    {"slope_max": float("nan")},
])
def test_sweep_rejects_bad_values_with_one_error_line(tmp_path, capsys, bad):
    quick = {"t_f": 0.5, "steps_per_period": 16, "avg_steps": 50}
    assert run_cmd("sweep", tmp_path, {**quick, **bad}) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_bvp_check_rejects_bad_cases(tmp_path):
    assert run_cmd("bvp-check", tmp_path, {"cases": []}) == 1
    assert run_cmd("bvp-check", tmp_path, {"cases": ["heat-1d"]}) == 1


# each count key, in every command that reads it: int() would truncate 2.5
# to 2 and read true as 1
_WHOLE_KEYS = [
    ("simulate", "stride", {}),
    ("simulate", "steps_per_fast_period", {}),
    ("sweep", "steps_per_period", {}),
    ("sweep", "avg_steps", {}),
    ("average-check", "n_states", {}),
    ("average-check", "panels", {}),
    ("average-check", "seed", {}),
    ("bvp-check", "n_states", {}),
    ("bvp-check", "panels", {}),
    ("bvp-check", "seed", {}),
    ("stability-probe", "steps_per_fast_period", {"system": "full"}),
]


@pytest.mark.parametrize("command,bad,message", [
    ("stability-probe", {"deltas": 6.0}, "deltas must be a list of numbers, got 6.0"),
    ("sweep", {"omegas": 5}, "omegas must be a list of numbers, got 5"),
    ("simulate", {"t_f": None}, "NoneType"),
    ("bvp-check", {"cases": 5}, "cases must be a non-empty list of names"),
    ("bvp-check", {"cases": "cosine-1d"}, "cases must be a non-empty list of names"),
    ("bvp-check", {"cases": ["cosine-1d", "heat-1d", 5]}, "unknown bvp cases: 5, heat-1d"),
    ("bvp-check", {"n_states": 0}, "n_states must be >= 1, got 0"),
    ("bvp-check", {"n_states": -2}, "n_states must be >= 1, got -2"),
    ("simulate", {"p0": [float("nan"), 0.0, 0.0], "t_f": 0.5}, "p0 must be finite, got [nan"),
    ("simulate", {"t_f": 0.0, "stride": 0}, "stride must be >= 1, got 0"),
    ("stability-probe", {"deltas": [float("nan")]}, "deltas must be finite, got nan"),
    ("stability-probe", {"deltas": [float("inf")]}, "deltas must be finite, got inf"),
    ("stability-probe", {"system": "full", "deltas": [float("nan")]},
     "deltas must be finite, got nan"),
    ("stability-probe", {"dt": 1000.0, "horizon": 1.0},
     "span must be finite and exceed half a step of dt=1000, got 1"),
    ("simulate", {"t_f": 5e-4}, "span must be finite and exceed half a step of dt=0.00125"),
    # bool("false") is True: a string would silently run projected
    ("simulate", {"t_f": 0.5, "projection": "false"},
     "error: projection must be true or false, got 'false'"),
    ("average-check", {"field": "nope"}, "error: unknown field 'nope'; choices: "),
    *[(command, {**base, key: bad}, f"error: {key} must be a whole number, got {bad!r}")
      for command, key, base in _WHOLE_KEYS for bad in (2.5, True, "4")],
    # a JSON string is not read one character at a time
    ("stability-probe", {"deltas": "12", "horizon": 2},
     "error: deltas must be a list of numbers, got '12'"),
    ("stability-probe", {"system": "full", "omegas": "12"},
     "error: omegas must be a list of numbers, got '12'"),
    ("sweep", {"omegas": "12345"}, "error: omegas must be a list of numbers, got '12345'"),
    # float() would read true as 1.0 and "6" as 6.0: list entries must be JSON numbers
    ("stability-probe", {"deltas": [True], "horizon": 2},
     "error: deltas must be a list of numbers, got [True]"),
    ("stability-probe", {"deltas": ["6"], "horizon": 2},
     "error: deltas must be a list of numbers, got ['6']"),
    ("sweep", {"omegas": [12.5, 25.0, True, 100.0]},
     "error: omegas must be a list of numbers, got [12.5, 25.0, True, 100.0]"),
    # a start that cannot be flown is bad input, not a divergence (exit 2)
    # or a bare math domain error from the first step
    ("simulate", {"y0": [float("nan"), 0.0], "t_f": 0.5}, "y0 must be finite, got [nan, 0.0]"),
    ("simulate", {"y0": [0.0, float("inf")], "t_f": 0.0}, "y0 must be finite, got [0.0, inf]"),
    ("simulate", {"p0": [1e160, 0.0, 0.0], "t_f": 0.5},
     "c(p0) must be finite, got -inf at p0 = [1e+160, 0.0, 0.0]"),
    # float() would read true as 1.0, "1" as 1.0 and NaN as itself: a
    # boolean threshold passed any slope <= 1, and t0 = NaN wrote a nan time
    ("sweep", {"slope_max": True}, "error: slope_max must be a number, got True (bool)"),
    ("sweep", {"slope_max": float("nan")}, "error: slope_max must be a number, got nan (float)"),
    ("sweep", {"t_f": "1"}, "error: t_f must be a number, got '1' (str)"),
    pytest.param("sweep", {"t_f": 10**400}, f"error: t_f must be a number, got {10**400!r} (int)",
                 id="sweep-t_f-integer-beyond-float"),
    ("simulate", {"t_f": 0.0, "t0": float("nan")}, "error: t0 must be a number, got nan (float)"),
    ("simulate", {"t_f": 0.5, "t0": "0"}, "error: t0 must be a number, got '0' (str)"),
    ("simulate", {"t_f": float("inf")}, "error: t_f must be a number, got inf (float)"),
    ("simulate", {"t_f": True}, "error: t_f must be a number, got True (bool)"),
    ("simulate", {"omega": "12", "t_f": 0.0}, "error: omega must be a number, got '12' (str)"),
    ("average-check", {"tolerance": "1e-6"},
     "error: tolerance must be a number, got '1e-6' (str)"),
    ("bvp-check", {"tolerance": True}, "error: tolerance must be a number, got True (bool)"),
    ("stability-probe", {"horizon": True}, "error: horizon must be a number, got True (bool)"),
    ("stability-probe", {"dt": float("nan"), "horizon": 2},
     "error: dt must be a number, got nan (float)"),
    ("stability-probe", {"entry_radius": "0.1", "horizon": 2},
     "error: entry_radius must be a number, got '0.1' (str)"),
    ("stability-probe", {"system": "full", "eps_z": False, "horizon": 2},
     "error: eps_z must be a number, got False (bool)"),
    ("stability-probe", {"system": "full", "entry_deadline": True, "horizon": 2},
     "error: entry_deadline must be a number, got True (bool)"),
    # vector settings are lists of JSON numbers too: np.asarray(..., float)
    # read "6" as 6.0 and true as 1.0, and a ragged or string value died
    # with numpy's own message
    ("simulate", {"p0": ["6", 2, -2], "t_f": 0},
     "error: p0 must be a list of numbers, got ['6', 2, -2]"),
    ("simulate", {"p0": [True, 2, -2], "t_f": 0},
     "error: p0 must be a list of numbers, got [True, 2, -2]"),
    ("simulate", {"p0": "6", "t_f": 0}, "error: p0 must be a list of numbers, got '6'"),
    ("simulate", {"p0": [6, 2], "t_f": 0}, "error: p0 must be a 3-vector"),
    ("simulate", {"y0": [True, False], "t_f": 0},
     "error: y0 must be a list of numbers, got [True, False]"),
    ("simulate", {"y0": ["0", 0], "t_f": 0}, "error: y0 must be a list of numbers, got ['0', 0]"),
    ("simulate", {"y0": "warm", "t_f": 0}, "error: y0 must be a list of numbers, got 'warm'"),
    ("simulate", {"y0": [0, 0, 0], "t_f": 0},
     "error: y0 must be 'quasi-steady', 'zero', or a pair"),
    ("simulate", {"R0": [["1", 0, 0], [0, 1, 0], [0, 0, 1]], "t_f": 0},
     "error: R0 must be a list of numbers, got ['1', 0, 0]"),
    ("simulate", {"R0": [[1, 0, 0], [0, True, 0], [0, 0, 1]], "t_f": 0},
     "error: R0 must be a list of numbers, got [0, True, 0]"),
    ("simulate", {"R0": [[1, 0, 0], [0, 1], [0, 0, 1]], "t_f": 0},
     "error: R0 must be 'identity' or a 3x3 nested list"),
    ("simulate", {"R0": "eye", "t_f": 0}, "error: R0 must be 'identity' or a 3x3 nested list"),
    ("sweep", {"p0": ["6", 2, -2]}, "error: p0 must be a list of numbers, got ['6', 2, -2]"),
    ("sweep", {"p0": [6, True, -2]}, "error: p0 must be a list of numbers, got [6, True, -2]"),
    # an integer beyond the float range passed the type check and then
    # ended in an OverflowError traceback from float(); R0 names its bad row
    *[pytest.param(command, {**base, key: value}, "error: {} must be a list of numbers, got {!r}"
                   .format(key, value[2] if key == "R0" else value), id=name)
      for name, command, base, key, value in [
          ("sweep-omegas-integer-beyond-float", "sweep", {}, "omegas", [12, 25, 50, 10**400]),
          ("sweep-p0-integer-beyond-float", "sweep", {}, "p0", [6, 2, -10**400]),
          ("probe-deltas-integer-beyond-float", "stability-probe", {"horizon": 2}, "deltas",
           [10**400]),
          ("probe-omegas-integer-beyond-float", "stability-probe",
           {"system": "full", "horizon": 2}, "omegas", [10**400]),
          ("simulate-p0-integer-beyond-float", "simulate", {"t_f": 0}, "p0", [10**400, 0, 0]),
          ("simulate-y0-integer-beyond-float", "simulate", {"t_f": 0}, "y0", [0, 10**400]),
          ("simulate-R0-integer-beyond-float", "simulate", {"t_f": 0}, "R0",
           [[1, 0, 0], [0, 1, 0], [0, 0, 10**400]]),
      ]],
    # seed and panels are read before any case runs, each under its own
    # name: numpy would refuse a negative seed unnamed, after the other
    # cases, a bvp-check without seeker-log would never read its seed, and
    # the corrector grid and the residual name n_panels with two different
    # lower bounds
    *[pytest.param(command, bad, message, id=name) for name, command, bad, message in [
        ("bvp-check-seed-string-unread-case", "bvp-check", {"cases": ["cosine-1d"], "seed": "x"},
         "error: seed must be a whole number, got 'x'"),
        ("bvp-check-seed-negative-unread-case", "bvp-check", {"cases": ["cosine-1d"], "seed": -5},
         "error: seed must be >= 0, got -5"),
        ("bvp-check-seed-negative", "bvp-check", {"seed": -5}, "error: seed must be >= 0, got -5"),
        ("average-check-seed-negative", "average-check", {"seed": -1},
         "error: seed must be >= 0, got -1"),
        ("bvp-check-panels-6", "bvp-check", {"cases": ["cosine-1d"], "panels": 6},
         "error: panels must be even and >= 8, got 6"),
        ("bvp-check-panels-7", "bvp-check", {"cases": ["cosine-1d"], "panels": 7},
         "error: panels must be even and >= 8, got 7"),
        ("average-check-panels-7", "average-check", {"panels": 7},
         "error: panels must be even and >= 2, got 7"),
        ("average-check-panels-0", "average-check", {"panels": 0},
         "error: panels must be even and >= 2, got 0"),
    ]],
    # output and field are non-empty JSON strings: 5 wrote a file named
    # 5, "" ran the whole check and then failed on the directory, and a
    # list was looked up by its repr
    *[pytest.param(command, bad, message, id=name) for name, command, bad, message in [
        ("average-check-output-number", "average-check", {"output": 5},
         "error: output must be a non-empty string, got 5"),
        ("average-check-output-empty", "average-check", {"output": ""},
         "error: output must be a non-empty string, got ''"),
        ("simulate-field-list", "simulate", {"field": ["log"], "t_f": 0},
         "error: field must be a non-empty string, got ['log']"),
        ("sweep-linear-field-empty", "sweep", {"system": "linear", "field": ""},
         "error: field must be a non-empty string, got ''"),
    ]],
    # t0 + k dt rounded to t0 at every step: the CSV's t column held one
    # value while the state moved, and the dither phase never advanced
    *[pytest.param("simulate", {"t_f": 0.01, "t0": t0},
                   f"error: TimeGrid time {t0:g} is too large for dt=0.00125",
                   id=f"simulate-t0-{t0:g}")
      for t0 in (1e17, 1e300)],
    # each verdict list holds one entry per radius or frequency, so a
    # repeat flew its 8 or 24 runs again, and a repeated case ran twice
    ("stability-probe", {"deltas": [2, 2]}, "error: deltas must not repeat, got 2.0 twice"),
    ("stability-probe", {"system": "full", "deltas": [3, 2, 3], "horizon": 2},
     "error: deltas must not repeat, got 3.0 twice"),
    ("stability-probe", {"system": "full", "omegas": [200, 200], "horizon": 2},
     "error: omegas must not repeat, got 200.0 twice"),
    ("bvp-check", {"cases": ["cosine-1d", "cosine-1d"]},
     "error: cases must not repeat, got 'cosine-1d' twice"),
])
def test_bad_values_exit_1_with_named_error_line(tmp_path, capsys, command, bad, message):
    assert run_cmd(command, tmp_path, bad) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err
    assert not (tmp_path / "out" / DEFAULTS[command]["output"]).exists()


def test_full_probe_checks_every_flight_grid_before_any_flight(tmp_path, capsys, monkeypatch):
    # at omega = 1 the step pi / 2 exceeds twice the 0.01 horizon, so those
    # grids are refused, and before any flight: none at omega = 200 either
    flights = []
    fly = harness.simulate_seeker

    def recorder(config, *args, **kwargs):
        flights.append(config.omega)
        return fly(config, *args, **kwargs)

    monkeypatch.setattr(harness, "simulate_seeker", recorder)
    config = {"system": "full", "horizon": 0.01, "omegas": [200, 1],
              "steps_per_fast_period": 2, "deltas": [1]}
    assert run_cmd("stability-probe", tmp_path, config) == 1
    err = capsys.readouterr().err
    assert err == "error: span must be finite and exceed half a step of dt=1.5708, got 0.01\n"
    assert flights == []


@pytest.mark.parametrize("error, message", [
    (MemoryError("Unable to allocate 5.82 TiB for an array with shape (800000000001,)"),
     "error: Unable to allocate 5.82 TiB for an array with shape (800000000001,)"),
    (MemoryError(), "error: MemoryError"),
])
def test_a_run_that_cannot_fit_in_memory_exits_1(tmp_path, capsys, monkeypatch, error, message):
    # simulate {"t_f": 1e9, "stride": 1000000} asked TimeGrid.times for
    # 8e11 times and died in numpy's traceback; the test only raises the error
    def too_big(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "simulate_seeker", too_big)
    assert run_cmd("simulate", tmp_path, {"t_f": 1e9, "stride": 1000000}) == 1
    assert capsys.readouterr().err == message + "\n"


def test_a_non_utf8_config_exits_1_as_unreadable(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"field": "caf\u00e9"}'.encode("latin-1"))
    assert main(["simulate", "--config", str(path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config {path}: 'utf-8' codec can't decode")


@pytest.mark.parametrize("command", ["average-check", "bvp-check"])
def test_a_phase_grid_beyond_the_address_space_exits_1(tmp_path, capsys, command):
    # numpy refuses an arange this long with a ValueError, which main no
    # longer catches; the grid constructor names it as memory instead
    assert run_cmd(command, tmp_path, {"panels": 2**70}) == 1
    assert capsys.readouterr().err == (
        f"error: {2**70} phases of 8 bytes exceed the address space\n")


_LADDER = [4.0 * math.pi * k for k in (1, 2, 4, 8)]


@pytest.mark.parametrize("command,payload", [
    pytest.param("sweep", {"p0": [30, 0, 0], "omegas": _LADDER, "t_f": 2,
                           "steps_per_period": 8, "avg_steps": 50}, id="sweep"),
    pytest.param("simulate", {"field": "quadratic", "p0": [30, 0, 0], "t_f": 5,
                              "steps_per_fast_period": 2, "projection": False}, id="simulate"),
])
def test_a_blowup_inside_a_float_step_exits_2(tmp_path, capsys, command, payload):
    # a huge but finite stage state overflows c inside the float right-hand
    # side, whose math.cos then raises before the step ends; integrate_rk4
    # reports it as the step's divergence
    assert run_cmd(command, tmp_path, payload) == 2
    if command == "sweep":
        # the rung that diverged is recorded, as run_compare promises
        report = strict_json((tmp_path / "out" / "sweep_report.json").read_text())
        assert "inf" in report["max_devs"] and report["pass"] is False
    else:
        assert capsys.readouterr().err.startswith("error: non-finite state at step ")


@pytest.mark.parametrize("command,payload", [
    pytest.param("stability-probe", {"field": "log", "deltas": [1e160], "horizon": 0.05},
                 id="averaged-probe"),
    pytest.param("stability-probe", {"system": "full", "field": "log", "deltas": [1e160],
                                     "horizon": 0.05}, id="full-probe"),
    pytest.param("stability-probe", {"field": "quadratic", "deltas": [2.0, 1e160],
                                     "horizon": 0.05}, id="quadratic-probe"),
    pytest.param("sweep", {"field": "log", "p0": [1e160, 0, 0], "omegas": _LADDER, "t_f": 2,
                           "steps_per_period": 8, "avg_steps": 50}, id="sweep"),
])
def test_a_seeker_start_beyond_the_float_range_exits_1_before_any_run(
        tmp_path, capsys, monkeypatch, command, payload):
    # every seeker start goes through initial_state, which refuses it with
    # no run flown and no numpy warning on the way
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    for name in ("integrate_rk4", "simulate_seeker"):
        monkeypatch.setattr(harness, name, no_run)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cmd(command, tmp_path, payload) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: c(p0) must be finite, got -inf at p0 = [")
    assert err.count("\n") == 1


# a base config per command and system that keeps any run short
_QUICK = [
    ("simulate", {"t_f": 0.05}),
    ("average-check", {"n_states": 1, "panels": 8}),
    ("bvp-check", {"n_states": 1, "panels": 8}),
    *[("sweep", {"system": system, "t_f": 0.05, "steps_per_period": 8, "avg_steps": 2})
      for system in ("seeker", "linear")],
    ("stability-probe", {"system": "averaged", "horizon": 0.05}),
    ("stability-probe", {"system": "full", "horizon": 0.05, "deltas": [1.0]}),
]


_SETTING_KEYS = [(command, base, key) for command, base in _QUICK for key in DEFAULTS[command]]


@pytest.mark.parametrize("command,base,key", [
    pytest.param(command, base, key, id="-".join(filter(None, [command, base.get("system"), key])))
    for command, base, key in _SETTING_KEYS
])
def test_every_setting_is_read_before_any_work(tmp_path, capsys, command, base, key):
    # {} is never a valid setting, so every key, given or default, must be
    # refused on every branch: a branch that leaves a key unread runs and
    # exits 0 with the bad value in the config
    assert run_cmd(command, tmp_path, {**base, key: {}}) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} ") and err.count("\n") == 1, err
    out = tmp_path / "out"
    assert not out.exists() or not any(out.iterdir())


# values no reader may take on trust: wrong types, NaN, infinities, sizes
# far beyond memory, bad shapes and names, and starts that overflow c or
# diverge within a step
_POOL = [
    None, True, "", "x", "log", "full", "zero", [], {}, [1.0], [1.0, 2.0], [0.0, 0.0, 0.0],
    [30.0, 0.0, 0.0], [1e160, 0.0, 0.0], [float("nan"), 0.0, 0.0], [1.0, 2.0, 3.0, 4.0],
    [[1, 0, 0], [0, 1, 0], [0, 0, -1]], [["cosine-1d"]], 0, -1, 2, 3, 7, 8, 0.5, -0.0,
    1e-300, 1e308, -1e308, float("nan"), float("inf"), -float("inf"), 2**70, -(2**70),
]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_every_refusal_is_a_twoscale_memory_or_os_error(data):
    # main catches only TwoscaleError, MemoryError and OSError: any other
    # exception a command raises on a bad setting escapes it and fails here.
    # One setting of a quick base config takes a pool value, and at times
    # a second setting of the same command another
    command, base, key = data.draw(st.sampled_from(_SETTING_KEYS))
    other = data.draw(st.sampled_from([None, *DEFAULTS[command]]))
    payload = {**base, **{k: data.draw(st.sampled_from(_POOL)) for k in (key, other) if k}}
    # a count of states this large is a long run, not a refusal
    n_states = payload.get("n_states")
    assume(not (isinstance(n_states, (int, float)) and not isinstance(n_states, bool)
                and n_states > 8))
    with tempfile.TemporaryDirectory() as tmp:
        code = run_cmd(command, Path(tmp), payload)
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_DIVERGED, cli.EXIT_CRITERION)


def test_integer_keys_accept_whole_floats(tmp_path):
    assert run_cmd("simulate", tmp_path, {"t_f": 0.5, "stride": 2.0}, out_name="float") == 0
    assert run_cmd("simulate", tmp_path, {"t_f": 0.5, "stride": 2}, out_name="int") == 0
    written = [(tmp_path / name / "trajectory.csv").read_bytes() for name in ("float", "int")]
    assert written[0] == written[1]


@pytest.mark.parametrize("stride", [2**63, 1e300])
def test_simulate_stride_beyond_the_run_writes_first_and_last_rows(tmp_path, stride):
    assert run_cmd("simulate", tmp_path, {"t_f": 0.5, "stride": stride}) == 0
    lines = (tmp_path / "out" / "trajectory.csv").read_text().strip().split("\n")
    assert len(lines) == 3  # the header, t = 0 and t = t_f
    assert [float(line.split(",")[0]) for line in lines[1:]] == [0.0, 0.5]


def test_probe_rejects_unknown_system(tmp_path):
    assert run_cmd("stability-probe", tmp_path, {"system": "hybrid"}) == 1


# -------------------------------------------------------------- simulate


def test_simulate_zero_horizon_writes_initial_row(tmp_path):
    code = run_cmd("simulate", tmp_path, {"t_f": 0.0})
    assert code == 0
    text = (tmp_path / "out" / "trajectory.csv").read_text()
    lines = text.strip().split("\n")
    assert len(lines) == 2
    assert lines[0] == (
        "t,px,py,pz,q1x,q1y,q1z,q2x,q2y,q2z,q3x,q3y,q3z,"
        "y1,y2,c_center,v_c,frame_residual"
    )
    assert lines[1] == (
        "0,6,2,-2,1,0,0,0,1,0,0,0,1,"
        "-3.1354942159291497,-3.1354942159291497,"
        "-3.1354942159291497,3.1354942159291497,0"
    )


def test_simulate_short_run_row_count_and_values(tmp_path):
    payload = {"t_f": 0.5, "steps_per_fast_period": 100, "stride": 10}
    assert run_cmd("simulate", tmp_path, payload) == 0
    lines = (tmp_path / "out" / "trajectory.csv").read_text().strip().split("\n")
    # dt = (pi/omega)/100 = 1/400, so 200 steps; stride 10 keeps 21 states
    assert len(lines) == 22
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[1:4] == [6.0, 2.0, -2.0]
    assert abs(first[15] - LOG_C0) < 1e-15
    last = [float(v) for v in lines[-1].split(",")]
    assert abs(last[0] - 0.5) < 1e-12
    assert all(np.isfinite(v) for v in last)
    # frame residual column stays at projection accuracy
    residuals = [float(line.split(",")[-1]) for line in lines[1:]]
    assert max(residuals) < 1e-12


def test_simulate_derived_columns_match_each_row_state(tmp_path):
    # unprojected, so the frame residual column holds nonzero values
    payload = {"t_f": 0.25, "steps_per_fast_period": 20, "projection": False}
    assert run_cmd("simulate", tmp_path, payload) == 0
    lines = (tmp_path / "out" / "trajectory.csv").read_text().strip().split("\n")
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert table.shape == (21, 18)
    fld = builtin_fields()["log"]
    for row in table:
        p, q = row[1:4], row[4:13]
        assert row[15] == fld.c(p)
        assert row[16] == lyapunov_value_and_rate(fld, p, q)[0]
        assert row[17] == manifold_residual(q)
    assert np.max(table[:, 17]) > 0.0


def test_simulate_projected_blowup_exits_2(tmp_path):
    # a huge filter start makes the first step too large to project back
    payload = {"y0": [0.0, 1000.0], "steps_per_fast_period": 4, "t_f": 2.0}
    assert run_cmd("simulate", tmp_path, payload) == 2


def test_simulate_nan_frame_exits_1(tmp_path):
    payload = {"R0": [[float("nan"), 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "t_f": 0.0}
    assert run_cmd("simulate", tmp_path, payload) == 1


def test_simulate_output_is_deterministic(tmp_path):
    payload = {"t_f": 0.25, "steps_per_fast_period": 50, "stride": 5}
    assert run_cmd("simulate", tmp_path, payload, out_name="a") == 0
    assert run_cmd("simulate", tmp_path, payload, out_name="b") == 0
    a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    b = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert a == b
    assert len(a) > 0


def test_write_csv_matches_per_cell_format(tmp_path):
    # one template for the whole table prints the same bytes as one format
    # string per row and as formatting each cell alone, special values
    # included; a list of rows writes the same
    special = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, 3.0, 0.1]
    rng = np.random.default_rng(59)
    scaled = rng.standard_normal((5, 8)) * 10.0 ** rng.integers(-300, 300, (5, 8))
    tables = [np.array([special]), np.vstack([special, scaled])]
    for k, table in enumerate(tables):
        header = [f"c{i}" for i in range(table.shape[1])]
        expected = "\n".join(
            [",".join(header)] + [",".join(format(float(v), ".17g") for v in row) for row in table]
        ) + "\n"
        fmt = ",".join(["%.17g"] * table.shape[1])
        assert expected == "\n".join(
            [",".join(header)] + [fmt % tuple(row) for row in table.tolist()]
        ) + "\n"
        for rows in (table, list(table)):
            path = tmp_path / f"t{k}.csv"
            _write_csv(path, header, rows)
            assert path.read_bytes() == expected.encode()


def test_write_report_spells_non_finite_floats_as_strings(tmp_path):
    path = tmp_path / "report.json"
    _write_report(path, {"a": [1.5, -np.inf, np.float64(np.nan)], "b": {"c": (np.inf, 2)}})
    assert strict_json(path.read_text()) == {
        "schema_version": 1, "a": [1.5, "-inf", "nan"], "b": {"c": ["inf", 2]},
    }
    # a finite report keeps the bytes of json.dumps' defaults
    finite = {"x": [0.1, np.float64(1e300), -0.0, None], "y": (3, True)}
    _write_report(path, finite)
    assert path.read_text() == json.dumps(
        {"schema_version": 1, **finite}, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------- average-check


def test_average_check_passes_and_reports(tmp_path):
    payload = {"n_states": 3, "panels": 128, "tolerance": 1e-5}
    assert run_cmd("average-check", tmp_path, payload) == 0
    report = json.loads((tmp_path / "out" / "average_check.json").read_text())
    assert report["schema_version"] == 1
    assert report["pass"] is True
    assert report["n_states"] == 3
    assert report["max_rel_error"] < 1e-5
    assert len(report["rel_errors"]) == 3


def test_average_check_zero_tolerance_is_criterion_failure(tmp_path):
    # roundoff exists, so a zero threshold must fail the check (exit 3),
    # not be rejected as an invalid config (exit 1)
    payload = {"n_states": 2, "panels": 64, "tolerance": 0.0}
    assert run_cmd("average-check", tmp_path, payload) == 3
    report = json.loads((tmp_path / "out" / "average_check.json").read_text())
    assert report["pass"] is False
    assert report["max_rel_error"] > 0.0


def test_average_check_nan_on_a_later_state_fails(tmp_path, monkeypatch):
    # Python's max keeps its first operand against a NaN, so a NaN fbar on
    # state 2 once passed with the max of the finite errors
    fbar = AveragedSystem.fbar
    calls = []

    def nan_on_second(self, x):
        calls.append(1)
        return fbar(self, x) * (np.nan if len(calls) == 2 else 1.0)

    monkeypatch.setattr(AveragedSystem, "fbar", nan_on_second)
    payload = {"n_states": 3, "panels": 64, "tolerance": 1e-3}
    assert run_cmd("average-check", tmp_path, payload) == 3
    report = json.loads((tmp_path / "out" / "average_check.json").read_text())
    assert report["pass"] is False
    assert np.isnan(float(report["max_rel_error"]))
    assert np.isnan(float(report["rel_errors"][1]))


def test_average_check_rejects_bad_counts(tmp_path):
    assert run_cmd("average-check", tmp_path, {"n_states": 0}) == 1
    assert run_cmd("average-check", tmp_path, {"tolerance": -1.0}) == 1


def test_average_check_output_is_deterministic(tmp_path):
    payload = {"n_states": 3, "panels": 64, "tolerance": 1e-3}
    assert run_cmd("average-check", tmp_path, payload, out_name="a") == 0
    assert run_cmd("average-check", tmp_path, payload, out_name="b") == 0
    a = (tmp_path / "a" / "average_check.json").read_bytes()
    b = (tmp_path / "b" / "average_check.json").read_bytes()
    assert a == b


# ------------------------------------------------------------------- sweep


def test_sweep_linear_system_passes(tmp_path):
    payload = {
        "system": "linear",
        "omegas": [4.0 * np.pi * 2.0**k for k in range(4)],
        "t_f": 1.0,
        "steps_per_period": 64,
        "avg_steps": 200,
    }
    assert run_cmd("sweep", tmp_path, payload) == 0
    report = json.loads((tmp_path / "out" / "sweep_report.json").read_text())
    assert report["schema_version"] == 1
    assert report["pass"] is True
    assert report["strictly_decreasing"] is True
    assert report["slope"] <= -0.9
    assert report["system"] == "linear"
    # quasi-steady start leaves nothing for the layer fit
    assert report["layer_rates"] == [None] * 4


def test_linear_sweep_follows_the_inverse_frequency_law(tmp_path):
    # the linear benchmark has no sqrt(w)-scale field, so its deviation
    # from the closed-form average falls like 1/omega.  On seven rungs from
    # 2 pi to 128 pi (the default ladder has five) the fitted slope read
    # -0.9855 when this bound was set; a fit off by 0.03 fails
    payload = {
        "system": "linear",
        "omegas": [2.0 * np.pi * 2.0**k for k in range(7)],
        "steps_per_period": 100,
    }
    assert run_cmd("sweep", tmp_path, payload) == 0
    report = json.loads((tmp_path / "out" / "sweep_report.json").read_text())
    assert report["strictly_decreasing"] is True
    assert abs(report["slope"] + 1.0) < 0.03, report["slope"]


@pytest.mark.parametrize("mode", ["quasi-steady", "zero"])
@pytest.mark.parametrize("system", ["seeker", "linear"])
def test_sweep_passes_its_system_directly(tmp_path, monkeypatch, system, mode):
    # one filter-start rule for both systems: phi0(x0) or zeros
    seen = {}

    def capture(spec, averaged, x0, y0, omegas, t_f, **kwargs):
        seen.update(spec=spec, averaged=averaged, x0=x0, y0=y0, omegas=omegas, t_f=t_f)
        none = [None] * len(omegas)
        return SweepReport(omegas=omegas, max_devs=[1.0 / w for w in omegas], slope=-1.0,
                           intercept=0.0, strictly_decreasing=True, layer_rates=none,
                           layer_gammas=none, t_f=t_f)

    monkeypatch.setattr(cli, "sweep_convergence", capture)
    payload = {"system": system, "y0": mode, "p0": [1.0, 1.0, 1.0]}
    assert run_cmd("sweep", tmp_path, payload) == 0
    assert seen["omegas"] == DEFAULTS["sweep"]["omegas"]
    assert seen["t_f"] == DEFAULTS["sweep"]["t_f"]
    x0 = seen["x0"]
    if system == "seeker":
        fld = builtin_fields()["quadratic"]
        assert (seen["spec"].n, seen["spec"].m) == (12, 2)
        assert np.array_equal(x0, np.concatenate([[1.0, 1.0, 1.0], embed(np.eye(3))]))
        assert np.array_equal(seen["averaged"](0.0, x0), averaged_seeker_field(fld)(0.0, x0))
        quasi_steady = np.array([-1.5, -1.5])
    else:
        bench = linear_benchmark()
        assert (seen["spec"].n, seen["spec"].m) == (2, 2)
        assert np.array_equal(seen["spec"].A, bench.spec.A)
        assert np.array_equal(x0, bench.x0)
        assert np.array_equal(seen["averaged"](0.0, x0), bench.Mbar @ x0)
        quasi_steady = bench.y0
    expected = quasi_steady if mode == "quasi-steady" else np.zeros(2)
    assert np.array_equal(seen["y0"], expected)


def test_sweep_unreachable_slope_is_criterion_failure(tmp_path):
    payload = {
        "system": "linear",
        "omegas": [4.0 * np.pi * 2.0**k for k in range(4)],
        "t_f": 1.0,
        "steps_per_period": 64,
        "avg_steps": 200,
        "slope_max": -5.0,
    }
    assert run_cmd("sweep", tmp_path, payload) == 3
    report = json.loads((tmp_path / "out" / "sweep_report.json").read_text())
    assert report["pass"] is False
    assert report["slope_ok"] is False


# --------------------------------------------------------------- bvp-check


def test_bvp_check_exact_cases_pass(tmp_path):
    payload = {"cases": ["cosine-1d", "jordan-2d"], "panels": 128}
    assert run_cmd("bvp-check", tmp_path, payload) == 0
    report = json.loads((tmp_path / "out" / "bvp_report.json").read_text())
    assert report["schema_version"] == 1
    assert report["pass"] is True
    assert report["max_residual"] < 1e-6
    assert [c["case"] for c in report["cases"]] == ["cosine-1d", "jordan-2d"]


def test_bvp_check_coarse_panels_fail_the_gate(tmp_path):
    # 8 phases resolve the exact cases' sources but not the seeker's b2:
    # its phi2 is wrong there, and the residual says so
    payload = {"cases": ["cosine-1d", "seeker-log"], "panels": 8, "n_states": 1}
    assert run_cmd("bvp-check", tmp_path, payload) == 3
    report = json.loads((tmp_path / "out" / "bvp_report.json").read_text())
    assert report["pass"] is False
    cosine, seeker = (entry["residuals"] for entry in report["cases"])
    assert cosine[0] < 1e-12
    assert seeker[0] < 1e-12 and seeker[1] > 1e-6
    assert report["max_residual"] == seeker[1]


def test_bvp_check_nan_phi2_residual_on_a_later_state_fails(tmp_path, monkeypatch):
    # state 2's phi2 residual is the last of four; max would drop its NaN
    residual = cli.residual_bvp
    calls = []

    def nan_on_fourth(*args, **kwargs):
        calls.append(1)
        return np.nan if len(calls) == 4 else residual(*args, **kwargs)

    monkeypatch.setattr(cli, "residual_bvp", nan_on_fourth)
    payload = {"cases": ["seeker-log"], "n_states": 2}
    assert run_cmd("bvp-check", tmp_path, payload) == 3
    report = json.loads((tmp_path / "out" / "bvp_report.json").read_text())
    assert report["pass"] is False
    assert np.isnan(float(report["max_residual"]))
    assert np.isnan(float(report["cases"][0]["residuals"][3]))


# --------------------------------------------------------- stability-probe


def test_probe_averaged_passes_quick_config(tmp_path):
    payload = {
        "system": "averaged",
        "field": "quadratic",
        "deltas": [2.0],
        "horizon": 10.0,
        "entry_radius": 0.5,
    }
    assert run_cmd("stability-probe", tmp_path, payload) == 0
    report = json.loads((tmp_path / "out" / "stability_report.json").read_text())
    assert report["schema_version"] == 1
    assert report["all_entered"] is True
    assert report["max_vc_step_increase"] <= 1e-9
    assert report["system"] == "averaged"
    assert report["field"] == "quadratic"
    assert len(report["runs"]) == 8


def test_probe_full_records_verdicts_as_data(tmp_path):
    # an unmet containment target is a finding, not an error: exit 0
    payload = {
        "system": "full",
        "field": "quadratic",
        "deltas": [2.0],
        "omegas": [8.0 * np.pi],
        "horizon": 2.0,
        "entry_deadline": 1.5,
        "eps_x": 0.01,
        "eps_z": 2.0,
        "steps_per_fast_period": 30,
    }
    assert run_cmd("stability-probe", tmp_path, payload) == 0
    report = json.loads((tmp_path / "out" / "stability_report.json").read_text())
    assert report["containment_omega"] == [{"delta": 2.0, "omega": None}]
    assert report["bounded_omega"] == [{"delta": 2.0, "omega": 8.0 * np.pi}]
    assert len(report["runs"]) == 24


def test_probe_with_non_finite_values_writes_strict_json(tmp_path, monkeypatch):
    # a field whose c is NaN at the source alone starts every run finite,
    # but every height deficit c(p_star) - c(p) is NaN, written as a string
    quadratic = builtin_fields()["quadratic"]

    def c(p):
        return np.where(np.any(np.asarray(p) != 0.0, axis=0), quadratic.c(p), np.nan)

    monkeypatch.setattr(cli, "field_by_name", lambda name: dataclasses.replace(quadratic, c=c))
    payload = {"deltas": [2.0], "horizon": 0.05}
    assert run_cmd("stability-probe", tmp_path, payload) == 3
    report = strict_json((tmp_path / "out" / "stability_report.json").read_text())
    assert report["all_entered"] is False
    assert report["max_vc_step_increase"] == "nan"
    assert [run["max_vc_step_increase"] for run in report["runs"]] == ["nan"] * 8


# ------------------------------------------------------------------ plumbing


def test_the_parser_is_built_once_per_process(tmp_path, monkeypatch):
    parser = cli.build_parser()
    assert cli.build_parser() is parser

    def refuse(*args, **kwargs):
        raise AssertionError("main built a second parser")

    monkeypatch.setattr(cli.argparse, "ArgumentParser", refuse)
    assert run_cmd("bvp-check", tmp_path, {"unknown": 1}) == cli.EXIT_CONFIG


def test_quiet_flag_suppresses_summary(tmp_path, capsys):
    assert run_cmd("simulate", tmp_path, {"t_f": 0.0}, quiet=True) == 0
    assert capsys.readouterr().out == ""
    assert run_cmd("simulate", tmp_path, {"t_f": 0.0}, quiet=False) == 0
    assert "simulate" in capsys.readouterr().out


def test_out_dir_created_recursively(tmp_path):
    argv = [
        "simulate",
        "--config", write_config(tmp_path, "s.json", {"t_f": 0.0}),
        "--out-dir", str(tmp_path / "deep" / "nested" / "dir"),
        "--quiet",
    ]
    assert main(argv) == 0
    assert (tmp_path / "deep" / "nested" / "dir" / "trajectory.csv").exists()


def test_output_subdirectory_is_made_under_out_dir(tmp_path):
    payload = {"output": "sub/dir/x.json", "n_states": 1, "panels": 8}
    assert run_cmd("average-check", tmp_path, payload) == 0
    assert (tmp_path / "out" / "sub" / "dir" / "x.json").exists()


def test_output_under_a_file_exits_1_before_any_work(tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("the command ran before its output directory was made")

    monkeypatch.setattr(cli, "build_bundle", no_work)
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "file").write_text("")
    payload = {"output": "file/x.json", "n_states": 1, "panels": 8}
    assert run_cmd("average-check", tmp_path, payload) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_defaults_match_documented_reference_setup():
    sim = DEFAULTS["simulate"]
    assert sim["field"] == "log"
    assert abs(sim["omega"] - 4.0 * np.pi) < 1e-15
    assert sim["p0"] == [6.0, 2.0, -2.0]
    assert sim["t_f"] == 100.0
    sweep = DEFAULTS["sweep"]
    assert sweep["omegas"] == [4.0 * np.pi * 2.0**k for k in range(5)]
    assert sweep["slope_max"] == -0.4
    assert DEFAULTS["bvp-check"]["cases"] == ["cosine-1d", "jordan-2d", "seeker-log"]


def test_console_script_entry_point(tmp_path):
    # the subprocess does not inherit pytest's pythonpath, so the
    # checkout's src goes first on its PYTHONPATH (an install need not exist)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_f": 0.0}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "twoscale.cli", "simulate",
         "--config", str(cfg), "--out-dir", str(tmp_path / "o"), "--quiet"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "o" / "trajectory.csv").exists()
