"""Tests of the benchmark's own code: names, span arithmetic, inputs and checks."""

import json
import os
import re

import pytest

import run
import tracer
import workloads as wl

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json():
    with open(os.path.join(tracer.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_metric_and_workload_names_are_plain():
    spec = _benchmark_json()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [name for name, _, _ in tracer.per_layer_specs()]
    names += list(wl.WORKLOADS)
    assert all(NAME.fullmatch(name) for name in names)


def test_benchmark_json_matches_the_code():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracer.per_layer_specs()
    assert {m["name"] for m in spec["end_to_end"]} \
        == {"wall_s", "steps_per_s", "setup_s", "peak_rss_mb"}


def _synthetic_tree():
    # root [0, 100) holds a [10, 40) and b [50, 70); a holds c [15, 25).
    names = ["root", "a", "b", "c"]
    name_id = [0, 1, 3, 2]
    parent = [-1, 0, 1, 0]
    start = [0, 10, 15, 50]
    end = [100, 40, 25, 70]
    return names, name_id, parent, start, end


def test_self_time_on_a_synthetic_span_tree():
    summary = tracer.summarize(*_synthetic_tree())
    assert summary["total_ns"] == {"root": 100, "a": 30, "b": 20, "c": 10}
    assert summary["self_ns"] == {"root": 50, "a": 20, "b": 20, "c": 10}
    assert summary["calls"] == {"root": 1, "a": 1, "b": 1, "c": 1}
    assert summary["edges"] == {">root": 1, "root>a": 1, "a>c": 1, "root>b": 1}
    assert summary["overruns"] == 0


def test_children_outlasting_their_parent_are_counted():
    names, name_id, parent, start, end = _synthetic_tree()
    end[0] = 45  # root now shorter than a + b
    assert tracer.summarize(names, name_id, parent, start, end)["overruns"] == 1


def test_recorder_nests_spans_by_call():
    rec = tracer.SpanRecorder()
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    summary = rec.summary()
    assert summary["calls"] == {"outer": 1, "inner": 2}
    assert summary["edges"] == {">outer": 1, "outer>inner": 2}
    assert summary["overruns"] == 0
    assert 0 <= summary["self_ns"]["outer"] <= summary["total_ns"]["outer"]


def test_layer_metrics_from_counts():
    summary = {
        "calls": {"integrators.projection_step": 4, "perturbed_kepler.integral_map.eval": 13,
                  "systems.drift_metrics": 5},
        "total_ns": {"integrators.projection_step": 8000},
        "self_ns": {"integrators.projection_step": 2000, "cli.run_experiment": 12000},
        "edges": {"integrators.projection_step>perturbed_kepler.integral_map.eval": 13},
        "overruns": 0,
    }
    values = tracer.layer_metrics(summary, steps=4, csv_rows=1)
    assert values["integrators.projection_step.newton_iters_per_step"] == 9 / 4
    assert values["integrators.projection_step.self_us"] == 0.5
    assert values["integrators.projection_step.us_per_call"] == 2.0
    assert values["cli.run_experiment.self_us_per_step"] == 3.0
    assert values["cli.row_yield"] == 0.2
    assert values["rigid_body.field.calls_per_step"] == 0.0
    assert set(values) | {"trace.overhead_frac"} == {n for n, _, _ in tracer.per_layer_specs()}


@pytest.mark.parametrize("system", ["kepler", "perturbed_kepler"])
def test_seeded_initial_states(system):
    default = wl.initial_state(system, wl.DEFAULT_SEED)
    assert default == wl.PAPER_DEFAULT[system]
    state = wl.initial_state(system, 7)
    assert state == wl.initial_state(system, 7)
    assert state != wl.initial_state(system, 8)
    assert max(abs(a - b) for a, b in zip(state, default)) <= wl.PERTURBATION


def test_check_csv_flags_short_values_and_missing_rows():
    cell = wl.WORKLOADS["kepler_fb_dense"]
    row = ",".join(format(v, ".17g") for v in (0.0, *wl.PAPER_DEFAULT["kepler"], 0, 0, 0, 0))
    good = f"{wl.CSV_HEADERS['kepler']}\n{row}\n{row}\n".encode()
    assert wl.check_csv(cell, good, 1) == []
    assert wl.check_csv(cell, good, 2) == ["2 CSV data rows, expected 3"]
    short = good.replace(b"1.3416407864998738", b"1.34164078649987")
    assert "17 significant digits" in wl.check_csv(cell, short, 1)[0]


@pytest.mark.parametrize("seed", [wl.DEFAULT_SEED, 3])
@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_one_step_setup_runs_take_one_step(name, seed):
    os.makedirs(run.WORK, exist_ok=True)
    workload = wl.WORKLOADS[name]
    session = run.Session(workload, seed)
    session.setup_sample()
    assert session.failed == 0, session.problems
    systems = getattr(workload, "systems", (name,))
    assert session.attempted == len(systems)
    for system in systems:
        with open(os.path.join(run.WORK, f"{system}_setup.stdout")) as handle:
            assert wl.parse_summary(handle.read())["steps_taken"] == "1"


def test_calibration_runs_and_rescales_to_the_reference_machine():
    os.makedirs(run.WORK, exist_ok=True)
    assert run.calibrate() > 0.0
    assert run.rescale(3.0, 2.0 * run.REFERENCE_S) == 1.5
