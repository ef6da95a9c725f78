import numpy as np
import pytest

from conftest import central_difference_gradient
from lyapint import rigid_body
from lyapint.feedback import (
    FeedbackSpec,
    FirstIntegralMap,
    assemble_jacobian,
    generic_gradient,
    lyapunov_value,
    make_feedback_field,
)

ALL_SYSTEMS = ["rigid_body", "kepler", "perturbed_kepler"]


@pytest.fixture(params=ALL_SYSTEMS)
def system(request, rigid_sys, kepler_sys, pk_sys):
    return {"rigid_body": rigid_sys, "kepler": kepler_sys,
            "perturbed_kepler": pk_sys}[request.param]


def test_feedback_spec_validation():
    with pytest.raises(ValueError):
        FeedbackSpec(reference=np.zeros(3), gain_diag=np.array([1.0, -1.0, 2.0]))
    with pytest.raises(ValueError):
        FeedbackSpec(reference=np.zeros(2), gain_diag=np.ones(3))
    with pytest.raises(ValueError):
        FeedbackSpec(reference=np.array([np.inf, 0.0]), gain_diag=np.ones(2))


def test_jacobian_transpose_is_linear(system):
    rng = np.random.default_rng(10)
    f = system.integral_map
    for _ in range(50):
        x = system.sample_state(rng)
        w1 = rng.standard_normal(f.dim_values)
        w2 = rng.standard_normal(f.dim_values)
        a, b = rng.uniform(-2, 2, 2)
        lhs = f.jacobian_transpose_apply(x, a * w1 + b * w2)
        rhs = a * f.jacobian_transpose_apply(x, w1) + b * f.jacobian_transpose_apply(x, w2)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_closed_form_jacobian_matches_columnwise_assembly(system):
    rng = np.random.default_rng(11)
    f = system.integral_map
    generic = FirstIntegralMap(
        dim_state=f.dim_state, dim_values=f.dim_values,
        eval=f.eval, jacobian_transpose_apply=f.jacobian_transpose_apply)
    for _ in range(25):
        x = system.sample_state(rng)
        assert np.allclose(assemble_jacobian(f, x), assemble_jacobian(generic, x),
                           rtol=1e-13, atol=1e-13)


def test_gradient_zero_at_reference_point(system):
    g = generic_gradient(system.integral_map, system.feedback_spec,
                         system.initial_state)
    assert np.array_equal(g, np.zeros(system.dim))
    assert lyapunov_value(system.integral_map, system.feedback_spec,
                          system.initial_state) == 0.0


def test_rigid_body_generic_matches_analytic_at_scaled_identity(rigid_sys):
    s = rigid_body.pack(1.1 * np.eye(3), (1.0, 1.0, 1.0))
    ga = rigid_sys.gradient(s)
    gg = generic_gradient(rigid_sys.integral_map, rigid_sys.feedback_spec, s)
    assert np.linalg.norm(ga - gg) <= 1e-12 * (1.0 + np.linalg.norm(ga))


def test_rigid_body_lyapunov_hand_value(rigid_sys):
    s = rigid_body.pack(1.1 * np.eye(3), (1.0, 1.0, 1.0))
    # k0/4 ||0.21 I||^2 + 0 + k2/2 |0.1 (3,2,1)|^2 with gains 50/100/50
    expected = 50 / 4 * (3 * 0.21**2) + 50 / 2 * (0.01 * 14)
    assert lyapunov_value(rigid_sys.integral_map, rigid_sys.feedback_spec,
                          s) == pytest.approx(expected, rel=1e-12)
    assert rigid_sys.lyapunov(s) == pytest.approx(expected, rel=1e-12)


def test_generic_matches_analytic_gradient(system):
    rng = np.random.default_rng(12)
    for _ in range(300):
        x = system.sample_state(rng)
        ga = system.gradient(x)
        gg = generic_gradient(system.integral_map, system.feedback_spec, x)
        assert np.linalg.norm(ga - gg) <= 1e-12 * (1.0 + np.linalg.norm(ga))


def test_generic_matches_finite_differences(system):
    rng = np.random.default_rng(13)
    fun = lambda x: lyapunov_value(system.integral_map, system.feedback_spec, x)
    for _ in range(60):
        x = system.sample_state(rng)
        gg = generic_gradient(system.integral_map, system.feedback_spec, x)
        gfd = central_difference_gradient(fun, x)
        assert np.linalg.norm(gg - gfd) <= 1e-5 * (1.0 + np.linalg.norm(gg))


def test_gradient_rejects_domain_violations(kepler_sys, pk_sys):
    from lyapint.errors import DomainError

    origin = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    for system in (kepler_sys, pk_sys):
        with pytest.raises(DomainError):
            generic_gradient(system.integral_map, system.feedback_spec, origin)
        with pytest.raises(DomainError):
            lyapunov_value(system.integral_map, system.feedback_spec, origin)


def test_lyapunov_value_nonnegative(system):
    rng = np.random.default_rng(14)
    for _ in range(10_000):
        x = system.sample_state(rng)
        assert system.lyapunov(x) >= 0.0


def test_gain_doubling_doubles_gradient(system):
    rng = np.random.default_rng(15)
    doubled = FeedbackSpec(reference=system.feedback_spec.reference,
                           gain_diag=2.0 * system.feedback_spec.gain_diag)
    for _ in range(50):
        x = system.sample_state(rng)
        g1 = generic_gradient(system.integral_map, system.feedback_spec, x)
        g2 = generic_gradient(system.integral_map, doubled, x)
        assert np.array_equal(g2, 2.0 * g1)


def test_feedback_field_is_base_minus_gradient(system):
    rng = np.random.default_rng(16)
    field = make_feedback_field(system.field, system.gradient)
    for _ in range(20):
        x = system.sample_state(rng)
        assert np.array_equal(field(x), system.field(x) - system.gradient(x))


def test_feedback_field_coincides_on_level_set(system):
    field = make_feedback_field(system.field, system.gradient)
    x0 = system.initial_state
    assert np.array_equal(field(x0), system.field(x0))


def test_orthogonality_of_gradient_and_field(system):
    rng = np.random.default_rng(18)
    for _ in range(2000):
        x = system.sample_state(rng)
        g = system.gradient(x)
        f = system.field(x)
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
