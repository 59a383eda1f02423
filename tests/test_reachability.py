"""Which src/ functions the CLI reaches.

All five commands run on configs a few steps long under sys.setprofile.
Every function in the package, closures included, must be entered by one
of them or be listed in _UNREACHED with the reason it stays.  A function
whose closure is entered counts as entered: the closure cannot exist
unless it ran (this covers the factories that run at import).  Functions
are told apart by file, first line and name, so two lambdas on one line
count as one.  An entry listed as test-only API must be one that
perfbench/tracer.py still wraps; once the tracer lets go of it, the name
is due for deletion.  Every report the runs write is strict JSON.
"""

import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

from twoscale import averaging, benchmarks, cli, errors, harness, numkit, seeker, so3, system

MODULES = (averaging, benchmarks, cli, errors, harness, numkit, seeker, so3, system)

_TEST_ONLY = "test-only API pinned by perfbench/tracer.py; ROADMAP lists it for deletion"
_HELPER = "serves only a test-only API pinned by perfbench/tracer.py"
_CROSS_CHECK = "acceptance criterion 7's oracle: the raw-kinematics representation"
_ASSUMPTION = "the standing-assumption check, which only tests run so far"
_LINEAR_FIELDS = (
    "the linear benchmark's phase fields, which its full replaces in flight: the fbar-vs-Mbar "
    "oracle reads them, and the standing-assumption check will read them in a command"
)

_UNREACHED = {
    "averaging.CorrectorSolution.__call__": "the README's bundle.phi1(x, 0.0)",
    "averaging.ReducedSystem.f1_tilde": _TEST_ONLY,
    "averaging.ReducedSystem.f2_tilde": _TEST_ONLY,
    "averaging.ReducedSystem.f2_values": _HELPER,
    "averaging._FirstCorrectorSource.__call__": _TEST_ONLY,
    "averaging._SecondCorrectorSource.__call__": _TEST_ONLY,
    "numkit.mat_exp": _TEST_ONLY,
    "numkit.simpson_rule": _TEST_ONLY,
    "numkit.quad_periodic": _TEST_ONLY,
    "numkit.cumulative_simpson": _TEST_ONLY,
    "seeker.sensor_position": _TEST_ONLY,
    "seeker.lyapunov_value_and_rate": _TEST_ONLY,
    "system.OscillatorySystemSpec.unpack": _TEST_ONLY,
    "system.frozen_layer_field": _TEST_ONLY,
    "system.frozen_layer_field.<locals>.field": _HELPER,
    "system.to_shifted": _TEST_ONLY,
    "system.from_shifted": _TEST_ONLY,
    "system.ShiftedState.__post_init__": _HELPER,
    "system._corrector_terms": _HELPER,
    "seeker.raw_kinematics_field": _CROSS_CHECK,
    "seeker.raw_kinematics_field.<locals>.rhs": _CROSS_CHECK,
    "seeker.cross_check": _CROSS_CHECK,
    "so3.extract": _CROSS_CHECK,
    "system.check_assumption_A": _ASSUMPTION,
    "system.AssumptionReport.ok": _ASSUMPTION,
    "benchmarks.linear_benchmark.<locals>.f2": _LINEAR_FIELDS,
    "benchmarks.linear_benchmark.<locals>.zero2": _LINEAR_FIELDS,
    "averaging._dy_jacobian.<locals>.<lambda>":
        "the finite-difference D_y F1 for specs without df1_dy and dg1_dy; "
        "both command specs supply them",
    "seeker._terms_view.<locals>.<lambda>":
        "the seeker spec's four field views; a spec with terms is read only through terms",
}

_RUNS = [
    ("simulate", {"t_f": 0.05}),
    ("simulate", {"t_f": 0.05, "projection": False}),
    ("simulate", {"t_f": 0.0}),
    ("average-check", {"n_states": 1, "panels": 8}),
    ("bvp-check", {"n_states": 1, "panels": 8}),
    *[("sweep", {"system": name, "omegas": [40.0, 50.0, 60.0, 70.0], "t_f": 0.05,
                 "steps_per_period": 8, "avg_steps": 2}) for name in ("seeker", "linear")],
    ("stability-probe", {"horizon": 0.05}),
    ("stability-probe", {"system": "full", "horizon": 0.01, "omegas": [200.0],
                         "steps_per_fast_period": 2, "deltas": [1.0]}),
    ("stability-probe", {"system": "full", "horizon": 2, "omegas": [12.566370614359172],
                         "steps_per_fast_period": 4, "deltas": [30]}),
]


def _functions(code, prefix, parent=None):
    """(key, qualified name, enclosing key) of every function defined in
    code; comprehensions are left out, lambdas kept."""
    for const in code.co_consts:
        if not inspect.iscode(const):
            continue
        name = prefix + const.co_name
        if not const.co_flags & inspect.CO_OPTIMIZED:  # a class body
            yield from _functions(const, name + ".", parent)
        elif not const.co_name.startswith("<") or const.co_name == "<lambda>":
            key = (const.co_filename, const.co_firstlineno, const.co_name)
            yield key, name, parent
            yield from _functions(const, name + ".<locals>.", key)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Run _RUNS under sys.setprofile: (the code keys entered in src/,
    the directory holding one output directory per run)."""
    tmp_path = tmp_path_factory.mktemp("runs")
    files = {module.__file__ for module in MODULES}
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in files:
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    codes = []
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for i, (command, config) in enumerate(_RUNS):
            path = tmp_path / f"{i}.json"
            path.write_text(json.dumps(config))
            codes.append(cli.main([command, "--config", str(path),
                                   "--out-dir", str(tmp_path / str(i)), "--quiet"]))
    finally:
        sys.setprofile(previous)
    assert set(codes) <= {cli.EXIT_OK, cli.EXIT_CRITERION}, codes
    return entered, tmp_path


def test_every_src_function_is_reached_or_listed(runs):
    names, parents = {}, {}
    for module in MODULES:
        with open(module.__file__) as source:
            code = compile(source.read(), module.__file__, "exec")
        for key, name, parent in _functions(code, module.__name__.split(".")[-1] + "."):
            names[key], parents[key] = name, parent
    entered = set(runs[0])
    stack = list(entered)
    while stack:
        parent = parents.get(stack.pop())
        if parent is not None and parent not in entered:
            entered.add(parent)
            stack.append(parent)
    unreached = {names[key] for key in names if key not in entered}
    assert sorted(unreached - set(_UNREACHED)) == [], "reached by no command and not listed"
    assert sorted(set(_UNREACHED) - unreached) == [], "listed, but reached or gone: strike it"


def test_every_report_is_strict_json(runs):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    reports = sorted(runs[1].glob("*/*.json"))
    assert len(reports) == sum(command != "simulate" for command, _ in _RUNS)
    for report in reports:
        json.loads(report.read_text(), parse_constant=refuse)


def test_every_test_only_entry_waits_on_the_tracer():
    # read the tracer's name lists without installing it
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("pinned_names", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    pinned = {f"{module}.{name}" for module, names in tracer._FUNCTIONS.items() for name in names}
    pinned |= {".".join(key) for key in (*tracer._METHODS, *tracer._FACTORIES)}
    waiting = [name for name, reason in _UNREACHED.items() if reason == _TEST_ONLY]
    assert waiting and [name for name in waiting if name not in pinned] == [], \
        "no longer pinned by the tracer: delete it"
