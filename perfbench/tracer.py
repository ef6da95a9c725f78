"""Outside-in tracing of the lyapint layers, and the traced child process.

Run as a script, this executes one `lyapint` CLI command in-process with the
public functions of each package module wrapped in spans, then writes a
summary of the spans as JSON:

    python3 perfbench/tracer.py SUMMARY_JSON <lyapint arguments...>

The layers are the package modules `cli`, `integrators`, `systems`,
`rigid_body`, `kepler`, `perturbed_kepler`, `feedback` and `diagnostics`.
`numerics` is not wrapped: its calls cost about as much as a span, so its
time lands in its callers' self time. Spans are kept in memory and
summarised when the command ends; a span's self time is its duration minus
the time its child spans cover. The wrappers run between a parent and its
children, so their cost lands in the parent's self time; `trace.overhead_frac`
reports it.

Names imported into `lyapint.cli` by `from ... import` are wrapped in the
`cli` namespace; system kernels are wrapped as module attributes, because the
systems call them as `rigid_body.modified_field(p, s)`. `drift_metrics` and
the integral maps are wrapped on the `SystemModel` that `cli.make_system`
returns, which serves both `cli.build_system` and `cli.check_system`.
"""

import array
import dataclasses
import functools
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SYSTEMS = ("rigid_body", "kepler", "perturbed_kepler")
SYSTEM_KERNELS = ("modified_field", "field", "lyapunov_gradient", "lyapunov")
# FirstIntegralMap attribute behind each reported integral-map part.
MAP_PARTS = {"eval": "eval", "jacobian": "jacobian", "jac_t": "jacobian_transpose_apply"}
_CLI_LAYERS = ("run_experiment", "build_system", "check_system", "euler_step",
               "rk4_step", "projection_step", "rollout", "orthogonality_report",
               "gradient_agreement_report", "check_rank_condition")
DIAGNOSTIC_REPORTS = ("orthogonality_report", "gradient_agreement_report",
                      "check_rank_condition")

# Per-call kernels: each reports `<name>.us_per_call` (inclusive time) and
# `<name>.calls_per_step` (an exact count).
KERNELS = (
    "integrators.euler_step", "integrators.rk4_step", "integrators.projection_step",
    "systems.drift_metrics", "feedback.generic_gradient", "diagnostics.singular_values",
    *(f"{s}.{k}" for s in SYSTEMS for k in SYSTEM_KERNELS),
    *(f"{s}.integral_map.{part}" for s in SYSTEMS for part in MAP_PARTS),
)

# Counts that must repeat exactly between traced runs of one input.
EXACT_METRICS = ("cli.row_yield", "integrators.projection_step.newton_iters_per_step",
                 *(f"{k}.calls_per_step" for k in KERNELS))


def per_layer_specs():
    """(name, unit, better) of every per-layer metric, in report order.

    What each should move, on which workload: `cli.run_experiment.self_us_per_step`
    (loop, formatting, write) and `cli.row_yield` move `steps_per_s` on
    rigid_fb_sparse and kepler_fb_dense; `cli.build_system.ms` moves `setup_s`
    everywhere; `integrators.euler_step.self_us` moves the two feedback
    workloads; `integrators.projection_step.*` moves pk_proj_newton;
    `integrators.rollout.us_per_step`, `feedback.generic_gradient`, the
    `diagnostics.*` reports and `singular_values` move `wall_s` on check_all;
    `systems.drift_metrics` moves every `run` workload; each system kernel
    moves its own system's workload and check_all; `integral_map.eval` and
    `jacobian` move pk_proj_newton, `jac_t` moves check_all.
    """
    specs = [
        ("cli.run_experiment.self_us_per_step", "us/step", "lower"),
        ("cli.row_yield", "rows/call", "higher"),
        ("cli.build_system.ms", "ms", "lower"),
        ("integrators.euler_step.self_us", "us", "lower"),
        ("integrators.projection_step.self_us", "us", "lower"),
        ("integrators.projection_step.newton_iters_per_step", "iters/step", "lower"),
        ("integrators.rollout.us_per_step", "us/step", "lower"),
        *((f"diagnostics.{r}.s", "s", "lower") for r in DIAGNOSTIC_REPORTS),
    ]
    for kernel in KERNELS:
        specs.append((f"{kernel}.us_per_call", "us", "lower"))
        specs.append((f"{kernel}.calls_per_step", "calls/step", "lower"))
    specs.append(("trace.overhead_frac", "frac", "lower"))
    return specs


class SpanRecorder:
    """In-memory spans: name, parent span, start and end (integer nanoseconds)."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array.array("q")
        self.parent = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self._open = [-1]

    def wrap(self, name, fn):
        """fn, recording one span per call as a child of the innermost open span."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        name_id, parent, start, end, open_ = (
            self.name_id, self.parent, self.start, self.end, self._open)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            name_id.append(nid)
            parent.append(open_[-1])
            end.append(0)
            open_.append(span)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[span] = clock()
                open_.pop()

        return traced

    def summary(self) -> dict:
        return summarize(self.names, self.name_id, self.parent, self.start, self.end)


def summarize(names, name_id, parent, start, end) -> dict:
    """Per-name calls, inclusive and self nanoseconds, and parent>child call counts.

    `overruns` counts spans whose children's summed durations exceed the span's
    own duration, which well-nested spans never do.
    """
    covered = [0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    calls, total_ns, self_ns, edges = {}, {}, {}, {}
    overruns = 0
    for i, nid in enumerate(name_id):
        name = names[nid]
        duration = end[i] - start[i]
        if covered[i] > duration:
            overruns += 1
        calls[name] = calls.get(name, 0) + 1
        total_ns[name] = total_ns.get(name, 0) + duration
        self_ns[name] = self_ns.get(name, 0) + duration - covered[i]
        p = parent[i]
        edge = f"{names[name_id[p]] if p >= 0 else ''}>{name}"
        edges[edge] = edges.get(edge, 0) + 1
    return {"calls": calls, "total_ns": total_ns, "self_ns": self_ns,
            "edges": edges, "overruns": overruns}


def layer_metrics(summary: dict, steps: int, csv_rows: int) -> dict:
    """Per-layer metric values of one traced command (0 for layers it never ran).

    `steps` is the workload's unit of work: integration steps for `run`,
    validator sample states for `check`.
    """
    calls = summary["calls"]
    total = summary["total_ns"]
    own = summary["self_ns"]
    edges = summary["edges"]

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    def per_call(name, key, scale):
        return per(key.get(name, 0), calls.get(name, 0), scale)

    projections = calls.get("integrators.projection_step", 0)
    map_evals = sum(edges.get(f"integrators.projection_step>{s}.integral_map.eval", 0)
                    for s in SYSTEMS)
    rollout_steps = sum(edges.get(f"integrators.rollout>integrators.{k}", 0)
                        for k in ("euler_step", "rk4_step"))
    out = {
        "cli.run_experiment.self_us_per_step":
            per(own.get("cli.run_experiment", 0), steps, 1e-3),
        "cli.row_yield": per(csv_rows, calls.get("systems.drift_metrics", 0)),
        "cli.build_system.ms": per_call("cli.build_system", total, 1e-6),
        "integrators.euler_step.self_us": per_call("integrators.euler_step", own, 1e-3),
        "integrators.projection_step.self_us":
            per_call("integrators.projection_step", own, 1e-3),
        "integrators.projection_step.newton_iters_per_step":
            per(map_evals - projections, projections),
        "integrators.rollout.us_per_step":
            per(total.get("integrators.rollout", 0), rollout_steps, 1e-3),
    }
    for report in DIAGNOSTIC_REPORTS:
        out[f"diagnostics.{report}.s"] = per_call(f"diagnostics.{report}", total, 1e-9)
    for kernel in KERNELS:
        out[f"{kernel}.us_per_call"] = per_call(kernel, total, 1e-3)
        out[f"{kernel}.calls_per_step"] = per(calls.get(kernel, 0), steps)
    return out


def _layer_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def install(rec: SpanRecorder):
    """Wrap the lyapint layers in spans; return the traced `cli.main`."""
    from lyapint import cli, diagnostics, feedback, kepler, perturbed_kepler, rigid_body

    def traced_model(model):
        fim = model.integral_map
        prefix = f"{model.name}.integral_map."
        fim = dataclasses.replace(fim, **{
            attr: rec.wrap(prefix + part, getattr(fim, attr))
            for part, attr in MAP_PARTS.items() if getattr(fim, attr) is not None})
        return dataclasses.replace(
            model, integral_map=fim,
            drift_metrics=rec.wrap("systems.drift_metrics", model.drift_metrics))

    for attr in _CLI_LAYERS:
        fn = getattr(cli, attr)
        setattr(cli, attr, rec.wrap(_layer_name(fn), fn))
    make_system = rec.wrap("systems.make_system", cli.make_system)

    @functools.wraps(make_system)
    def traced_make_system(*args, **kwargs):
        return traced_model(make_system(*args, **kwargs))

    cli.make_system = traced_make_system
    diagnostics.singular_values = rec.wrap(
        "diagnostics.singular_values", diagnostics.singular_values)
    feedback.generic_gradient = rec.wrap("feedback.generic_gradient", feedback.generic_gradient)
    perturbed_kepler.check_hypothesis = rec.wrap(
        "perturbed_kepler.check_hypothesis", perturbed_kepler.check_hypothesis)
    for module in (rigid_body, kepler, perturbed_kepler):
        system = module.__name__.rsplit(".", 1)[-1]
        for attr in SYSTEM_KERNELS:
            setattr(module, attr, rec.wrap(f"{system}.{attr}", getattr(module, attr)))
    return rec.wrap("cli.main", cli.main)


def main(argv) -> int:
    summary_path, cli_argv = argv[0], argv[1:]
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import lyapint

    if not os.path.abspath(lyapint.__file__).startswith(src + os.sep):
        print(f"lyapint imported from {lyapint.__file__}, not from {src}", file=sys.stderr)
        return 2
    rec = SpanRecorder()
    traced_main = install(rec)
    try:
        return traced_main(cli_argv)
    finally:
        sys.stdout.flush()
        with open(summary_path, "w") as handle:
            json.dump(rec.summary(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
