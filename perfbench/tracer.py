"""Span tracing for the benchmark, installed from outside the package.

The tracer wraps the public entry points of each ``twoscale`` module (and
the closures those entry points return) by rebinding module and class
attributes, so nothing under ``src/`` changes.  A span records its name,
its inclusive time and the part of that time its child spans cover; a
layer's self time is the sum of its spans' self times.  The benchmark's
own overhead is the traced wall time no span covers, so layer self times
plus that overhead add up to the traced wall time.

Everything runs in one thread: no layer waits on another, so waiting time
is zero for every layer.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("numkit", "so3", "seeker", "system", "averaging", "harness", "cli")

# module-level functions wrapped as "<module>.<function>" spans
_FUNCTIONS = {
    "numkit": ("mat_exp", "simpson_rule", "quad_periodic", "cumulative_simpson",
               "jacobian_fd", "rk4_step", "integrate_rk4"),
    "so3": ("hat", "exp_so3", "embed", "extract", "manifold_residual", "project_so3"),
    "seeker": ("sensor_position", "initial_state", "cross_check", "simulate_seeker",
               "lyapunov_value_and_rate", "_project_state"),
    "system": ("frozen_layer_field", "check_assumption_A", "to_shifted", "from_shifted"),
    "averaging": ("values_at", "build_b", "solve_periodic_bvp", "build_reduced",
                  "average", "build_bundle", "residual_bvp"),
    "harness": ("run_compare", "sweep_convergence", "fit_boundary_layer",
                "shell_directions", "aligned_frame", "probe_seeker_stability",
                "probe_averaged_stability"),
    "cli": ("main", "_load_config"),
}

# methods wrapped as spans: (module, class, method) -> span name
_METHODS = {
    ("seeker", "SeekerTrajectory", "center_values"): "seeker.center_values",
    ("seeker", "SeekerTrajectory", "frame_residuals"): "seeker.frame_residuals",
    ("seeker", "SeekerTrajectory", "lyapunov_values"): "seeker.lyapunov_values",
    ("system", "OscillatorySystemSpec", "pack"): "system.pack",
    ("system", "OscillatorySystemSpec", "unpack"): "system.unpack",
    ("system", "OscillatorySystemSpec", "phi0_jacobian"): "system.phi0_jacobian",
    ("averaging", "CorrectorSolution", "__call__"): "averaging.corrector_point",
    ("averaging", "CorrectorSolution", "values_on_grid"): "averaging.grid_sweep",
    ("averaging", "CorrectorSolution", "values_at"): "averaging.corrector_values_at",
    ("averaging", "_FirstCorrectorSource", "values_at"): "averaging.b1",
    ("averaging", "_FirstCorrectorSource", "__call__"): "averaging.b1",
    ("averaging", "_SecondCorrectorSource", "values_at"): "averaging.b2",
    ("averaging", "_SecondCorrectorSource", "_values_at"): "averaging.b2_compute",
    ("averaging", "_SecondCorrectorSource", "__call__"): "averaging.b2_point",
    ("averaging", "ReducedSystem", "f1_tilde"): "averaging.f1_tilde",
    ("averaging", "ReducedSystem", "f2_tilde"): "averaging.f2_tilde",
    ("averaging", "ReducedSystem", "f1_values"): "averaging.f1_values",
    ("averaging", "ReducedSystem", "f2_values"): "averaging.f2_values",
    ("averaging", "AveragedSystem", "fbar"): "averaging.fbar",
}

# entry points that return closures; the closures become spans of their own
_FACTORIES = {
    ("seeker", "seeker_field"): "seeker.rhs",
    ("seeker", "raw_kinematics_field"): "seeker.raw_rhs",
    ("seeker", "averaged_seeker_field"): "seeker.avg_rhs",
    ("system", "assemble_full_field"): "system.full_rhs",
}

_SPEC_FIELDS = ("phi0", "dphi0", "f1", "f2", "g1", "g2", "df1_dy", "dg1_dy")
_RHS_SPANS = ("seeker.rhs", "seeker.raw_rhs", "seeker.avg_rhs", "system.full_rhs")

# 8-byte float64 and int64 entries throughout the corrector sweep
_WORD = 8


class Tracer:
    """In-memory span statistics: per-name totals and parent-child edge counts."""

    def __init__(self):
        self._stack: list[list] = []
        self.reset()

    def reset(self) -> None:
        # name -> [calls, inclusive seconds, self seconds]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        self.extra: dict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                entry = self.stats[name]
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
                    self.edges[(parent[0], name)] += 1

        return traced

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def mean(self, name: str, scale: float) -> float:
        calls = self.calls(name)
        return scale * self.stats[name][1] / calls if calls else 0.0

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in self.stats.items():
            out[name.split(".", 1)[0]] += self_s
        return out


class Installation:
    """Rebinds the package's attributes to traced wrappers; undo() restores them."""

    def __init__(self, tracer: Tracer, modules: dict):
        self._undo: list[tuple[object, str, object]] = []
        self._tracer = tracer
        namespaces = list(modules.values())

        def rebind_everywhere(original, replacement) -> None:
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._set(ns, attr, replacement)

        for mod, names in _FUNCTIONS.items():
            for fname in names:
                original = getattr(modules[mod], fname)
                rebind_everywhere(original, tracer.wrap(f"{mod}.{fname}", original))

        for (mod, cls_name, meth), span in _METHODS.items():
            cls = getattr(modules[mod], cls_name)
            self._set(cls, meth, tracer.wrap(span, vars(cls)[meth]))

        for (mod, fname), span in _FACTORIES.items():
            original = getattr(modules[mod], fname)
            rebind_everywhere(original, self._factory(original, span))

        original = modules["seeker"].builtin_fields
        rebind_everywhere(original, self._wrap_fields(original))
        original = modules["seeker"].as_system_spec
        rebind_everywhere(original, self._wrap_spec(original))
        original = modules["cli"]._write_csv
        rebind_everywhere(original, self._wrap_write_csv(original))
        original = modules["cli"]._write_report
        rebind_everywhere(original, self._wrap_write_report(original))
        grid_sweep = vars(modules["averaging"].CorrectorSolution)["values_on_grid"]
        self._set(modules["averaging"].CorrectorSolution, "values_on_grid",
                  self._count_corrector_work(grid_sweep))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _factory(self, factory, span: str):
        tracer = self._tracer

        @functools.wraps(factory)
        def make(*args, **kwargs):
            return tracer.wrap(span, factory(*args, **kwargs))

        return tracer.wrap(f"{span.split('.', 1)[0]}.{factory.__name__}", make)

    def _wrap_fields(self, builtin_fields):
        tracer = self._tracer

        def traced_fields():
            fields = builtin_fields()
            return {
                name: dataclasses.replace(
                    fld,
                    c=tracer.wrap("seeker.scalar_field", fld.c),
                    grad=tracer.wrap("seeker.scalar_field", fld.grad),
                    hess=None if fld.hess is None else tracer.wrap("seeker.scalar_field", fld.hess),
                )
                for name, fld in fields.items()
            }

        return tracer.wrap("seeker.builtin_fields", traced_fields)

    def _wrap_spec(self, as_system_spec):
        tracer = self._tracer

        def traced_spec(fld):
            spec = as_system_spec(fld)
            for attr in _SPEC_FIELDS:
                fn = getattr(spec, attr)
                if fn is not None:
                    setattr(spec, attr, tracer.wrap("seeker.spec_field", fn))
            return spec

        return tracer.wrap("seeker.as_system_spec", traced_spec)

    def _wrap_write_csv(self, write_csv):
        """Split CSV writing into row building (consuming the row generator) and writing."""
        tracer = self._tracer
        build = tracer.wrap("cli.row_build", list)
        write = tracer.wrap("cli.write", write_csv)

        def traced_write_csv(path, header, rows):
            rows = build(rows)
            write(path, header, rows)
            tracer.extra["cli.rows"] += len(rows)
            tracer.extra["cli.bytes_written"] += Path(path).stat().st_size

        return traced_write_csv

    def _wrap_write_report(self, write_report):
        tracer = self._tracer
        write = tracer.wrap("cli.write", write_report)

        def traced_write_report(path, payload):
            write(path, payload)
            tracer.extra["cli.bytes_written"] += Path(path).stat().st_size

        return traced_write_report

    def _count_corrector_work(self, values_on_grid):
        """Computed flops and bytes of the shifted-grid contraction, per sweep.

        vals[k, i] = sum_{l, j} PC[l, i, j] beta[(l + k) mod N, j]: one
        multiply-add per (l, k, i, j).  Bytes count the gathered copy of
        beta (written then read), the shift index, PC and the result.
        """
        tracer = self._tracer

        @functools.wraps(values_on_grid)
        def counted(self_, x, offset=0.0):
            N, m = self_.n_panels, self_.m
            tracer.extra["averaging.corrector_flops"] += 2.0 * N * N * m * m
            tracer.extra["averaging.corrector_bytes"] += _WORD * (
                N * N + 2 * N * N * m + N * m * m + N * m
            )
            return values_on_grid(self_, x, offset)

        return counted


def per_layer_metrics(tracer: Tracer, wall_s: float, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """The per-layer metric table for one traced pass: name -> (value, unit).

    wall_s is the pass's raw wall time, which the spans' self times and the
    benchmark's own time add up to; overhead_ratio is traced over untraced.
    """
    t = tracer
    steps = t.calls("numkit.rk4_step")
    sweeps = t.calls("averaging.grid_sweep")
    values_at = t.calls("averaging.corrector_values_at")
    b2 = t.calls("averaging.b2")
    rows = t.extra["cli.rows"]
    writes = t.calls("cli.write")
    post = ("harness.probe_averaged_stability", "harness.run_compare")
    post_calls = sum(t.calls(n) for n in post)
    layer_self = t.layer_self()
    spanned = sum(layer_self.values())
    metrics = {
        "numkit.rk4_steps": (steps, "count"),
        "numkit.rhs_calls": (sum(t.edges[("numkit.rk4_step", r)] for r in _RHS_SPANS), "count"),
        "numkit.step_self_us": (1e6 * t.stats["numkit.rk4_step"][2] / steps if steps else 0.0, "us"),
        "seeker.rhs_us": (t.mean("seeker.rhs", 1e6), "us"),
        "so3.exp_so3_calls": (t.calls("so3.exp_so3"), "count"),
        "seeker.project_us": (t.mean("seeker._project_state", 1e6), "us"),
        "so3.project_so3_us": (t.mean("so3.project_so3", 1e6), "us"),
        "seeker.avg_rhs_us": (t.mean("seeker.avg_rhs", 1e6), "us"),
        "seeker.lyapunov_calls": (t.calls("seeker.lyapunov_value_and_rate"), "count"),
        "seeker.lyapunov_us": (t.mean("seeker.lyapunov_value_and_rate", 1e6), "us"),
        "harness.postprocess_self_s": (
            sum(t.stats[n][2] for n in post) / post_calls if post_calls else 0.0, "s"),
        "harness.run_compare_ms": (t.mean("harness.run_compare", 1e3), "ms"),
        "so3.manifold_residual_calls": (t.calls("so3.manifold_residual"), "count"),
        "so3.manifold_residual_us": (t.mean("so3.manifold_residual", 1e6), "us"),
        "cli.row_build_us": (1e6 * t.stats["cli.row_build"][1] / rows if rows else 0.0, "us"),
        "cli.write_s": (
            t.stats["cli.write"][1] / writes if writes else 0.0, "s"),
        "cli.bytes_written": (int(t.extra["cli.bytes_written"]), "bytes"),
        "averaging.grid_sweeps": (sweeps, "count"),
        "averaging.grid_sweep_ms": (t.mean("averaging.grid_sweep", 1e3), "ms"),
        "averaging.corrector_flops": (t.extra["averaging.corrector_flops"] / sweeps if sweeps else 0.0, "flop"),
        "averaging.corrector_bytes": (t.extra["averaging.corrector_bytes"] / sweeps if sweeps else 0.0, "bytes"),
        "averaging.point_evals": (t.calls("averaging.corrector_point"), "count"),
        "averaging.grid_hit_ratio": (
            t.edges[("averaging.corrector_values_at", "averaging.grid_sweep")] / values_at
            if values_at else 0.0, "ratio"),
        "averaging.b2_ms": (t.mean("averaging.b2", 1e3), "ms"),
        "averaging.b2_cache_hit_ratio": (
            1.0 - t.edges[("averaging.b2", "averaging.b2_compute")] / b2 if b2 else 0.0, "ratio"),
        "averaging.fbar_ms": (t.mean("averaging.fbar", 1e3), "ms"),
        "averaging.residual_ms": (t.mean("averaging.residual_bvp", 1e3), "ms"),
        "seeker.spec_field_calls": (t.calls("seeker.spec_field"), "count"),
        "system.full_rhs_calls": (t.calls("system.full_rhs"), "count"),
        "system.full_rhs_us": (t.mean("system.full_rhs", 1e6), "us"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self[layer], "s")
    metrics["bench.self_s"] = (wall_s - spanned, "s")
    metrics["trace.wall_s"] = (wall_s, "s")
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return metrics


# counts that must repeat exactly across two traced passes with the same inputs
REPEATED_COUNTS = (
    "numkit.rk4_steps",
    "numkit.rhs_calls",
    "seeker.spec_field_calls",
    "averaging.grid_sweeps",
    "so3.exp_so3_calls",
)
