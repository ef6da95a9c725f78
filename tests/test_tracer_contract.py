"""The names that perfbench/tracer.py wraps exist in the package.

The tracer wraps functions and fields by name; a renamed or removed one
would otherwise surface only when the traced benchmark runs.
"""

import dataclasses
import importlib.util
import os

import pytest

from lyapint import cli, diagnostics, feedback, perturbed_kepler
from lyapint.feedback import FirstIntegralMap
from lyapint.systems import SystemModel, make_system, module

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("name", [*tracer._CLI_LAYERS, "make_system"])
def test_each_cli_layer_exists(name):
    assert callable(getattr(cli, name))


@pytest.mark.parametrize("system", tracer.SYSTEMS)
def test_each_system_module_has_the_kernels(system):
    for kernel in tracer.SYSTEM_KERNELS:
        assert callable(getattr(module(system), kernel)), f"{system}.{kernel}"


@pytest.mark.parametrize("system", tracer.SYSTEMS)
def test_the_model_calls_each_kernel_through_its_module_attribute(system, monkeypatch):
    # make_system's closures look each kernel up on the module at every call,
    # so a wrapper set on the module after the model is built, as the tracer
    # sets them, sees each call of the model's function exactly once
    model, m = make_system(system), module(system)
    calls = dict.fromkeys(tracer.SYSTEM_KERNELS, 0)
    for kernel in tracer.SYSTEM_KERNELS:
        def counted(*args, kernel=kernel, fn=getattr(m, kernel)):
            calls[kernel] += 1
            return fn(*args)

        monkeypatch.setattr(m, kernel, counted)
    for attr, kernel in (("field", "field"), ("modified_field", "modified_field"),
                         ("gradient", "lyapunov_gradient"), ("lyapunov", "lyapunov")):
        before = dict(calls)
        getattr(model, attr)(model.initial_state)
        assert calls == {**before, kernel: before[kernel] + 1}, attr


def test_the_module_functions_exist():
    assert callable(diagnostics.singular_values)
    assert callable(feedback.generic_gradient)
    assert callable(perturbed_kepler.check_hypothesis)


def test_the_wrapped_fields_exist():
    map_fields = {f.name for f in dataclasses.fields(FirstIntegralMap)}
    assert set(tracer.MAP_PARTS.values()) <= map_fields
    model_fields = {f.name for f in dataclasses.fields(SystemModel)}
    assert {"name", "integral_map", "drift_metrics"} <= model_fields
