import math

import numpy as np
import pytest

from conftest import global_order_ratio
from lyapint.cli import ExperimentConfig, make_advance
from lyapint.errors import DomainError, IntegrationError, ProjectionError, RankError
from lyapint.feedback import FirstIntegralMap
from lyapint.integrators import (
    ProjectionConfig,
    euler_step,
    integrate,
    projection_step,
    rk4_step,
    rollout,
    steps_for,
    stormer_verlet_step,
)


def test_euler_zero_field_keeps_state():
    x = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(euler_step(lambda s: np.zeros(3), x, 0.25), x)


def test_euler_constant_field_is_linear():
    c = np.array([2.0, -4.0, 6.0])
    x = np.zeros(3)
    assert np.array_equal(euler_step(lambda s: c, x, 0.5), 0.5 * c)


def test_euler_exponential_one_step():
    x = np.array([1.0])
    assert euler_step(lambda s: s, x, 0.1)[0] == 1.1


def test_rk4_zero_field_keeps_state():
    x = np.array([4.0, 5.0])
    assert np.array_equal(rk4_step(lambda s: np.zeros(2), x, 1.0), x)


def test_rk4_exponential_truncated_series():
    h = 0.1
    expected = 1.0 + h + h**2 / 2 + h**3 / 6 + h**4 / 24
    out = rk4_step(lambda s: s, np.array([1.0]), h)[0]
    assert out == pytest.approx(expected, abs=1e-16)


def test_rk4_exact_time_quadrature():
    # augmented state (x, t); fields x' = t and x' = t^3 integrate exactly
    for power, gain in ((1, 0.5), (3, 0.25)):
        field = lambda s, p=power: np.array([s[1] ** p, 1.0])
        out = rk4_step(field, np.array([0.0, 0.0]), 1.0)
        assert out[0] == pytest.approx(gain, abs=1e-16)
        assert out[1] == 1.0


def test_stormer_verlet_free_drift():
    q = np.array([1.0, 2.0])
    v = np.array([0.5, -0.5])
    for variant in "AB":
        q1, v1 = stormer_verlet_step(lambda qq: np.zeros(2), q, v, 0.25, variant)
        assert np.array_equal(q1, q + 0.25 * v)
        assert np.array_equal(v1, v)


def test_stormer_verlet_unknown_variant():
    with pytest.raises(ValueError):
        stormer_verlet_step(lambda q: -q, np.ones(1), np.zeros(1), 0.1, "C")


def test_stormer_verlet_harmonic_energy_bounded():
    # q'' = -q: energy error oscillates at O(h^2) with no secular trend,
    # while forward Euler's energy grows without bound.
    h = 0.01
    q, v = np.array([1.0]), np.array([0.0])
    first, last = 0.0, 0.0
    n = 200_000
    for k in range(n):
        q, v = stormer_verlet_step(lambda qq: -qq, q, v, h, "A")
        err = abs(0.5 * (q[0] ** 2 + v[0] ** 2) - 0.5)
        if k < n // 10:
            first = max(first, err)
        if k >= n - n // 10:
            last = max(last, err)
    assert last <= 2.0 * first
    assert last < 1e-4

    x = np.array([1.0, 0.0])
    for _ in range(n):
        x = euler_step(lambda s: np.array([s[1], -s[0]]), x, h)
    euler_err = abs(0.5 * (x[0] ** 2 + x[1] ** 2) - 0.5)
    assert euler_err > 100.0 * last


def test_stormer_verlet_kepler_angular_momentum(kepler_sys):
    x = kepler_sys.initial_state.copy()
    s0 = x.copy()
    worst = 0.0
    for _ in range(steps_for(kepler_sys.period, 0.005)):
        q, v = stormer_verlet_step(kepler_sys.accel, x[:3], x[3:], 0.005, "A")
        x = np.concatenate((q, v))
        worst = max(worst, kepler_sys.drift_metrics(x, s0)["dL"])
    assert worst <= 1e-10


def test_order_euler():
    ratio = global_order_ratio(euler_step, lambda s: s, [1.0], 1.0, 0.01,
                               np.array([math.e]))
    assert 1.8 <= ratio <= 2.2


def test_order_rk4():
    ratio = global_order_ratio(rk4_step, lambda s: s, [1.0], 1.0, 0.1,
                               np.array([math.e]))
    assert 14.0 <= ratio <= 18.0


def test_order_stormer_verlet():
    def sho_error(h, variant):
        q, v = np.array([1.0]), np.array([0.0])
        for _ in range(round(1.0 / h)):
            q, v = stormer_verlet_step(lambda qq: -qq, q, v, h, variant)
        return abs(q[0] - math.cos(1.0))

    for variant in "AB":
        ratio = sho_error(0.01, variant) / sho_error(0.005, variant)
        assert 3.6 <= ratio <= 4.4


def test_projection_returns_point_on_constraint_untouched(kepler_sys):
    cfg = ProjectionConfig(constraint=kepler_sys.integral_map,
                           target=kepler_sys.feedback_spec.reference,
                           tol=0.005)
    x0 = kepler_sys.initial_state
    out = projection_step(euler_step, cfg, lambda s: np.zeros(6), x0, 0.005)
    assert np.array_equal(out, x0)


def test_projection_kepler_residual_within_tolerance(kepler_sys):
    cfg = ProjectionConfig(constraint=kepler_sys.integral_map,
                           target=kepler_sys.feedback_spec.reference,
                           tol=0.005)
    x = kepler_sys.initial_state.copy()
    for _ in range(2000):
        x = projection_step(euler_step, cfg, kepler_sys.field, x, 0.005)
        res = np.linalg.norm(kepler_sys.integral_map.eval(x) - cfg.target)
        assert res <= 0.005


def test_projection_rigid_residual_within_tolerance(rigid_sys):
    cfg = ProjectionConfig(constraint=rigid_sys.integral_map,
                           target=rigid_sys.feedback_spec.reference,
                           tol=1e-4)
    x = rigid_sys.initial_state.copy()
    for _ in range(500):
        x = projection_step(euler_step, cfg, rigid_sys.field, x, 1e-4)
        res = np.linalg.norm(rigid_sys.integral_map.eval(x) - cfg.target)
        assert res <= 1e-4


def test_projection_reports_nonconvergence(kepler_sys):
    cfg = ProjectionConfig(constraint=kepler_sys.integral_map,
                           target=kepler_sys.feedback_spec.reference,
                           tol=1e-15, max_iter=1)
    far = kepler_sys.initial_state + np.array([0.3, 0.2, 0.0, 0.1, -0.2, 0.0])
    with pytest.raises(ProjectionError) as info:
        projection_step(euler_step, cfg, kepler_sys.field, far, 0.005)
    assert info.value.residual > 0.0


def test_projection_rank_error_on_degenerate_constraint():
    flat = FirstIntegralMap(
        dim_state=2, dim_values=1,
        eval=lambda x: np.array([1.0]),
        jacobian_transpose_apply=lambda x, w: np.zeros(2))
    cfg = ProjectionConfig(constraint=flat, target=np.array([0.0]), tol=1e-10)
    with pytest.raises(RankError):
        projection_step(euler_step, cfg, lambda s: np.zeros(2), np.zeros(2), 0.1)


def test_projection_config_validation(kepler_sys):
    with pytest.raises(ValueError):
        ProjectionConfig(constraint=kepler_sys.integral_map,
                         target=np.zeros(6), tol=0.0)
    with pytest.raises(ValueError):
        ProjectionConfig(constraint=kepler_sys.integral_map,
                         target=np.zeros(6), tol=1e-6, max_iter=0)


def test_schemes_are_deterministic(rigid_sys):
    x = rigid_sys.initial_state
    a = euler_step(rigid_sys.modified_field, x, 1e-3)
    b = euler_step(rigid_sys.modified_field, x, 1e-3)
    assert np.array_equal(a, b)
    a = rk4_step(rigid_sys.field, x, 1e-3)
    b = rk4_step(rigid_sys.field, x, 1e-3)
    assert np.array_equal(a, b)


def test_steps_for_handles_float_dust():
    assert steps_for(50.0, 1e-4) == 500_000
    assert steps_for(702.5, 0.005) == 140_500
    assert steps_for(200.0, 0.03) == 6_666
    assert steps_for(1.0, 0.1) == 10


def test_rollout_records_stride_and_final():
    times, states = rollout(lambda x, h: x + h, np.zeros(1), 0.5, 5, stride=2)
    assert list(times) == [0.0, 1.0, 2.0, 2.5]
    assert states.shape == (4, 1)


@pytest.mark.filterwarnings("ignore:overflow")
def test_rollout_attaches_step_index_on_blowup():
    grow = lambda s: s * 1e150
    with pytest.raises(IntegrationError) as info:
        rollout(lambda x, h: euler_step(grow, x, h), np.array([1.0]), 1.0, 50)
    assert info.value.step is not None
    assert 1 <= info.value.step <= 50


def test_integrate_observes_start_and_every_step_and_returns_final():
    x0 = np.zeros(1)
    seen = []
    final = integrate(lambda x, h: x + h, x0, 0.5, 3,
                      lambda k, x: seen.append((k, float(x[0]))))
    assert seen == [(0, 0.0), (1, 0.5), (2, 1.0), (3, 1.5)]
    assert final[0] == 1.5
    assert x0[0] == 0.0  # the start state is copied, never advanced in place


def test_integrate_turns_arithmetic_error_into_integration_error():
    def advance(x, h):
        if x[0] >= 2.0:
            raise ZeroDivisionError("float division by zero")
        return x + h

    with pytest.raises(IntegrationError) as info:
        integrate(advance, np.zeros(1), 1.0, 10, lambda k, x: None)
    assert info.value.step == 3
    assert isinstance(info.value.__cause__, ZeroDivisionError)


def test_integrate_numbers_a_failing_observation_as_its_step():
    def observe(k, x):
        if k == 4:
            raise OverflowError("math range error")

    with pytest.raises(IntegrationError) as info:
        integrate(lambda x, h: x + h, np.zeros(1), 1.0, 10, observe)
    assert info.value.step == 4
    assert isinstance(info.value.__cause__, OverflowError)


def test_integrate_attaches_step_to_other_errors_unless_set():
    def leave_domain(x, h):
        if x[0] >= 1.0:
            raise DomainError("left the domain")
        return x + h

    with pytest.raises(DomainError) as info:
        integrate(leave_domain, np.zeros(1), 1.0, 10, lambda k, x: None)
    assert info.value.step == 2

    def preset(x, h):
        raise IntegrationError("already numbered", step=99)

    with pytest.raises(IntegrationError) as info:
        integrate(preset, np.zeros(1), 1.0, 10, lambda k, x: None)
    assert info.value.step == 99


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_rollout_turns_float_overflow_into_integration_error(pk_sys):
    # perturbed Kepler feedback Euler at h = 0.3 overflows delta / r**3 on
    # Python floats at step 8
    advance = make_advance(pk_sys, "feedback_euler", ExperimentConfig())
    with pytest.raises(IntegrationError) as info:
        rollout(advance, pk_sys.initial_state, 0.3, 1300)
    assert info.value.step == 8
    assert isinstance(info.value.__cause__, OverflowError)
