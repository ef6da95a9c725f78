import dataclasses
import math
from functools import partial

import numpy as np
import pytest

from conftest import central_difference_gradient, contract_models, pack, sampled, stacked
from lyapint import kepler, perturbed_kepler, rigid_body
from lyapint.errors import DomainError
from lyapint.feedback import generic_gradient, lyapunov_value
from lyapint.systems import module as system_module

ALL_SYSTEMS = ["rigid_body", "kepler", "perturbed_kepler"]


@pytest.fixture(params=ALL_SYSTEMS)
def system(request, rigid_sys, kepler_sys, pk_sys):
    return {"rigid_body": rigid_sys, "kepler": kepler_sys,
            "perturbed_kepler": pk_sys}[request.param]


# the target fields of each params class
TARGET_FIELDS = {rigid_body: ("E0", "pi0"), kepler: ("L0", "A0"), perturbed_kepler: ("E0", "L0")}


@pytest.mark.parametrize("module", TARGET_FIELDS, ids=lambda m: m.__name__.rsplit(".", 1)[-1])
def test_params_reject_bad_gains_and_non_finite_targets(module):
    # each gain at 0, -1, inf and nan, then each target field with an inf
    # or nan first entry: the params reject them with ValueError
    for i, name in enumerate(module.GAIN_NAMES):
        for gain in (0.0, -1.0, math.inf, math.nan):
            gains = list(module.BENCHMARK_GAINS)
            gains[i] = gain
            with pytest.raises(ValueError, match=f"gain {name} must be positive and finite"):
                module.setup(None, gains)
    p, _ = module.setup(None, module.BENCHMARK_GAINS)
    for target in TARGET_FIELDS[module]:
        value = getattr(p, target)
        for bad in (math.inf, -math.inf, math.nan):
            bad_value = bad if isinstance(value, float) else (bad, *value[1:])
            with pytest.raises(ValueError, match="non-finite target"):
                dataclasses.replace(p, **{target: bad_value})


# The kernel contract, stated once over the two models of each system
# (conftest.CONTRACT_MODELS). A block's columns give the single-state results
# bit for bit (the block test), so the other properties read blocks where
# that is quicker.


@pytest.fixture(params=contract_models())
def model(request):
    return request.param


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def jacobian_block(f, columns) -> np.ndarray:
    """The integral map's Jacobian on a block's columns as an array (N, dim_values, dim_state)."""
    n = len(columns[0])
    return np.array([[np.broadcast_to(c, n) for c in row]
                     for row in f.jacobian(columns)]).transpose(2, 0, 1)


def test_gradient_and_feedback_field_match_the_oracle(model):
    # the closed forms against Df^T K (f - f0), which generic_gradient builds
    # from eval and jacobian, at 1,000 states
    p, f = model.params, model.integral_map
    columns = tuple(sampled(model, 1000, 21).T)
    oracle = stacked(generic_gradient(f, p.K, p.f0, columns))
    for got, expected in ((model.gradient(columns), oracle),
                          (model.modified_field(columns), stacked(model.field(columns)) - oracle)):
        gap = np.linalg.norm(stacked(got) - expected, axis=1)
        assert (gap / (1.0 + np.linalg.norm(expected, axis=1))).max() <= 1e-12


def test_jacobian_rows_are_central_differences_of_eval(model):
    # at 1,000 states, each entry as conftest.central_difference_gradient forms it
    f, eps = model.integral_map, 1e-6
    block = sampled(model, 1000, 22)
    jac = jacobian_block(f, tuple(block.T))
    fd = np.empty_like(jac)
    for j in range(f.dim_state):
        up, down = block.copy(), block.copy()
        up[:, j] += eps
        down[:, j] -= eps
        fd[:, :, j] = (stacked(f.eval(tuple(up.T))) - stacked(f.eval(tuple(down.T)))) / (2.0 * eps)
    gap = np.abs(jac - fd).max(axis=(1, 2)) / (1.0 + np.abs(jac).max(axis=(1, 2)))
    assert gap.max() <= 1e-6


# the kernels a block test checks, by name; accel only where the system has one
BLOCK_KERNELS = ("field", "gradient", "modified_field", "accel", "eval", "jacobian",
                 "generic_gradient")


def block_cases():
    return [pytest.param(case.values[0], name, id=f"{case.id}-{name}")
            for case in contract_models() for name in BLOCK_KERNELS
            if name != "accel" or case.values[0].accel is not None]


def block_kernel(model, name):
    """The kernel called name, on a state or a block's columns; the shape of its
    result at one state; and its result on a block's columns as an array (N, *shape)."""
    p, f = model.params, model.integral_map
    if name == "jacobian":
        return f.jacobian, (f.dim_values, f.dim_state), partial(jacobian_block, f)
    kernel, width = {"field": (model.field, model.dim),
                     "gradient": (model.gradient, model.dim),
                     "modified_field": (model.modified_field, model.dim),
                     "accel": (lambda x: model.accel(x[:3]), 3),
                     "eval": (f.eval, f.dim_values),
                     "generic_gradient": (partial(generic_gradient, f, p.K, p.f0), model.dim)}[name]
    return kernel, (width,), lambda columns: stacked(kernel(columns))


@pytest.mark.parametrize(("model", "name"), block_cases())
def test_kernels_on_block_columns_give_the_single_state_floats_bit_for_bit(model, name):
    # entry i of the block result is the kernel's result at state i, Python
    # floats of the kernel's shape; 2,000 states
    kernel, shape, on_block = block_kernel(model, name)
    block = sampled(model, 2000, 23)
    single = np.array([kernel(tuple(s)) for s in block.tolist()], dtype=object)
    assert single.shape == (len(block), *shape)
    assert {type(c) for c in single.ravel()} == {float}
    assert same_bits(single.astype(float), on_block(tuple(block.T)))


def test_fused_kernel_gives_the_feedback_field_gradient_and_values_bit_for_bit(model):
    # the module's _feedback against modified_field, the gradient and
    # _values, and its field against field - gradient; 2,000 states
    m, p = system_module(model.name), model.params
    states = [tuple(s) for s in sampled(model, 2000, 24).tolist()]
    fused = [np.array(part) for part in zip(*(m._feedback(p, s) for s in states))]
    for part, kernel in zip(fused, (model.modified_field, model.gradient, partial(m._values, p))):
        assert same_bits(part, [kernel(s) for s in states])
    assert same_bits(fused[0], np.array([model.field(s) for s in states]) - fused[1])


@pytest.mark.parametrize("model", contract_models("kepler", "perturbed_kepler"))
def test_a_state_at_the_origin_raises_alone_and_in_a_block(model):
    p, f = model.params, model.integral_map
    block = sampled(model, 10, 25)
    block[7, :3] = 0.0
    for kernel in (model.field, model.gradient, model.modified_field, model.lyapunov, f.eval,
                   partial(generic_gradient, f, p.K, p.f0), lambda x: model.accel(x[:3])):
        with pytest.raises(DomainError):
            kernel(tuple(block[7].tolist()))
        with pytest.raises(DomainError, match="batch state 7 "):
            kernel(tuple(block.T))


def test_at_the_start_the_gradient_is_zero_and_the_feedback_field_is_the_field(model):
    # the kernels evaluate f0 = f(x0)'s own expressions: f - f0 is exactly 0 there
    p, s0 = model.params, model.initial_state
    assert np.array_equal(model.gradient(s0), np.zeros(model.dim))
    assert np.array_equal(generic_gradient(model.integral_map, p.K, p.f0, s0), np.zeros(model.dim))
    assert np.array_equal(model.modified_field(s0), model.field(s0))
    assert model.lyapunov(s0) == 0.0


def test_rigid_body_generic_matches_analytic_at_scaled_identity(rigid_sys):
    s = pack(1.1 * np.eye(3), (1.0, 1.0, 1.0))
    ga = np.array(rigid_sys.gradient(s))
    p = rigid_sys.params
    gg = np.array(generic_gradient(rigid_sys.integral_map, p.K, p.f0, s))
    assert np.linalg.norm(ga - gg) <= 1e-12 * (1.0 + np.linalg.norm(ga))


def test_rigid_body_lyapunov_hand_value(rigid_sys):
    s = pack(1.1 * np.eye(3), (1.0, 1.0, 1.0))
    # k0/4 ||0.21 I||^2 + 0 + k2/2 |0.1 (3,2,1)|^2 with gains 50/100/50
    expected = 50 / 4 * (3 * 0.21**2) + 50 / 2 * (0.01 * 14)
    p = rigid_sys.params
    assert lyapunov_value(p.K, p.f0,
                          rigid_sys.integral_map.eval(s)) == pytest.approx(expected, rel=1e-12)
    assert rigid_sys.lyapunov(s) == pytest.approx(expected, rel=1e-12)


def test_closed_form_gradient_matches_finite_differences_of_lyapunov(system):
    rng = np.random.default_rng(17)
    for _ in range(60):
        x = system.sample_state(rng)
        ga = np.array(system.gradient(x))
        gfd = central_difference_gradient(system.lyapunov, x)
        assert np.linalg.norm(ga - gfd) <= 1e-5 * (1.0 + np.linalg.norm(ga))


def test_generic_matches_finite_differences(system):
    rng = np.random.default_rng(13)
    p = system.params
    fun = lambda x: lyapunov_value(p.K, p.f0, system.integral_map.eval(x))
    for _ in range(60):
        x = system.sample_state(rng)
        gg = np.array(generic_gradient(system.integral_map, p.K, p.f0, x))
        gfd = central_difference_gradient(fun, x)
        assert np.linalg.norm(gg - gfd) <= 1e-5 * (1.0 + np.linalg.norm(gg))


def test_lyapunov_value_nonnegative(system):
    rng = np.random.default_rng(14)
    for _ in range(10_000):
        x = system.sample_state(rng)
        assert system.lyapunov(x) >= 0.0


def test_gain_doubling_doubles_gradient(system):
    rng = np.random.default_rng(15)
    p = system.params
    doubled = tuple(2.0 * k for k in p.K)
    for _ in range(50):
        x = system.sample_state(rng)
        g1 = np.array(generic_gradient(system.integral_map, p.K, p.f0, x))
        g2 = np.array(generic_gradient(system.integral_map, doubled, p.f0, x))
        assert np.array_equal(g2, 2.0 * g1)


def test_orthogonality_of_gradient_and_field(system):
    rng = np.random.default_rng(18)
    for _ in range(2000):
        x = system.sample_state(rng)
        g = np.array(system.gradient(x))
        f = np.array(system.field(x))
        bound = 1e-12 * (1.0 + np.linalg.norm(g) * np.linalg.norm(f))
        assert abs(float(g @ f)) <= bound


def test_lyapunov_decrease_rigid_benchmark(rigid_feedback_50):
    assert rigid_feedback_50.worst_rise <= 0.0


@pytest.mark.xfail(
    reason="per-step truncation injection at the e = 0.8 perihelion reaches "
           "~2e-8 at h = 0.005, above the 1e-9 per-step allowance; V still "
           "plateaus globally",
    strict=False)
def test_lyapunov_decrease_kepler_benchmark(kepler_feedback_10T):
    assert kepler_feedback_10T.worst_rise <= 0.0


@pytest.mark.xfail(
    reason="forward Euler at h = 0.03 exceeds the perihelion stability limit "
           "(h * lambda_max ~ 3.2 > 2), so V bursts there",
    strict=False)
def test_lyapunov_decrease_perturbed_kepler_benchmark(pk_runs):
    assert pk_runs["feedback"].worst_rise <= 0.0
