import dataclasses
import math

import numpy as np
import pytest

from conftest import central_difference_gradient, pack, stacked
from lyapint import kepler, perturbed_kepler, rigid_body
from lyapint.errors import DomainError
from lyapint.feedback import generic_gradient, lyapunov_value

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


def test_oracle_on_block_columns_equals_single_state_floats_bit_for_bit(system):
    # eval, jacobian and generic_gradient on a block's columns against the
    # Python floats of each state; 1,500 states, one full and one partial block
    f, K, f0 = system.integral_map, system.params.K, system.params.f0
    for block in system.sample_blocks(np.random.default_rng(19), 1500, 1000):
        columns = tuple(block.T)
        values, rows = f.eval(columns), f.jacobian(columns)
        oracle = stacked(generic_gradient(f, K, f0, columns))
        for i, state in enumerate(block.tolist()):
            x = tuple(state)
            single_values, single_rows = f.eval(x), f.jacobian(x)
            assert len(single_values) == f.dim_values and len(single_rows) == f.dim_values
            assert all(type(v) is float for v in single_values)
            assert all(len(row) == f.dim_state and all(type(c) is float for c in row)
                       for row in single_rows)
            assert np.array([v[i] for v in values]).tobytes() == np.array(single_values).tobytes()
            entries = [[np.broadcast_to(c, len(block))[i] for c in row] for row in rows]
            assert np.array(entries).tobytes() == np.array(single_rows).tobytes()
            single = generic_gradient(f, K, f0, x)
            assert all(type(c) is float for c in single)
            assert np.array(single).tobytes() == oracle[i].tobytes()


def test_gradient_zero_at_reference_point(system):
    p = system.params
    g = generic_gradient(system.integral_map, p.K, p.f0, system.initial_state)
    assert np.array_equal(g, np.zeros(system.dim))
    assert lyapunov_value(p.K, p.f0, system.integral_map.eval(system.initial_state)) == 0.0


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


def test_generic_matches_analytic_gradient(system):
    rng = np.random.default_rng(12)
    p = system.params
    for _ in range(300):
        x = system.sample_state(rng)
        ga = np.array(system.gradient(x))
        gg = np.array(generic_gradient(system.integral_map, p.K, p.f0, x))
        assert np.linalg.norm(ga - gg) <= 1e-12 * (1.0 + np.linalg.norm(ga))


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


def test_gradient_rejects_domain_violations(kepler_sys, pk_sys):
    origin = (0.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    for system in (kepler_sys, pk_sys):
        p = system.params
        with pytest.raises(DomainError):
            generic_gradient(system.integral_map, p.K, p.f0, origin)
        with pytest.raises(DomainError):
            lyapunov_value(p.K, p.f0, system.integral_map.eval(origin))
        block = np.array([system.sample_state(np.random.default_rng(k)) for k in range(5)])
        block[3] = origin
        with pytest.raises(DomainError, match="batch state 3"):
            generic_gradient(system.integral_map, p.K, p.f0, tuple(block.T))


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


def test_modified_field_is_field_minus_gradient(system):
    rng = np.random.default_rng(16)
    for _ in range(20):
        x = system.sample_state(rng)
        assert np.array_equal(system.modified_field(x),
                              np.array(system.field(x)) - np.array(system.gradient(x)))


def test_modified_field_coincides_with_field_on_level_set(system):
    x0 = system.initial_state
    assert np.array_equal(system.modified_field(x0), system.field(x0))


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
