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
from lyapint.systems import MODULES, SystemModel

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
        assert callable(getattr(MODULES[system], kernel)), f"{system}.{kernel}"


def test_the_module_functions_exist():
    assert callable(diagnostics.singular_values)
    assert callable(feedback.generic_gradient)
    assert callable(perturbed_kepler.check_hypothesis)


def test_the_wrapped_fields_exist():
    map_fields = {f.name for f in dataclasses.fields(FirstIntegralMap)}
    assert set(tracer.MAP_PARTS.values()) <= map_fields
    model_fields = {f.name for f in dataclasses.fields(SystemModel)}
    assert {"name", "integral_map", "drift_metrics"} <= model_fields
