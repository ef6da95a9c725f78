import numpy as np
import pytest

from conftest import central_difference_gradient, pack, stacked
from lyapint.errors import DomainError
from lyapint.feedback import FeedbackSpec, generic_gradient, lyapunov_value

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
    for gain in (np.inf, np.nan):
        with pytest.raises(ValueError):
            FeedbackSpec(reference=np.zeros(2), gain_diag=np.array([1.0, gain]))


def test_oracle_on_block_columns_equals_single_state_floats_bit_for_bit(system):
    # eval, jacobian and generic_gradient on a block's columns against the
    # Python floats of each state; 1,500 states, one full and one partial block
    f, spec = system.integral_map, system.feedback_spec
    for block in system.sample_blocks(np.random.default_rng(19), 1500, 1000):
        columns = tuple(block.T)
        values, rows = f.eval(columns), f.jacobian(columns)
        oracle = stacked(generic_gradient(f, spec, columns))
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
            single = generic_gradient(f, spec, x)
            assert all(type(c) is float for c in single)
            assert np.array(single).tobytes() == oracle[i].tobytes()


def test_gradient_zero_at_reference_point(system):
    g = generic_gradient(system.integral_map, system.feedback_spec,
                         system.initial_state)
    assert np.array_equal(g, np.zeros(system.dim))
    spec = system.feedback_spec
    assert lyapunov_value(spec.gain_diag, spec.reference,
                          system.integral_map.eval(system.initial_state)) == 0.0


def test_rigid_body_generic_matches_analytic_at_scaled_identity(rigid_sys):
    s = pack(1.1 * np.eye(3), (1.0, 1.0, 1.0))
    ga = np.array(rigid_sys.gradient(s))
    gg = np.array(generic_gradient(rigid_sys.integral_map, rigid_sys.feedback_spec, s))
    assert np.linalg.norm(ga - gg) <= 1e-12 * (1.0 + np.linalg.norm(ga))


def test_rigid_body_lyapunov_hand_value(rigid_sys):
    s = pack(1.1 * np.eye(3), (1.0, 1.0, 1.0))
    # k0/4 ||0.21 I||^2 + 0 + k2/2 |0.1 (3,2,1)|^2 with gains 50/100/50
    expected = 50 / 4 * (3 * 0.21**2) + 50 / 2 * (0.01 * 14)
    spec = rigid_sys.feedback_spec
    assert lyapunov_value(spec.gain_diag, spec.reference,
                          rigid_sys.integral_map.eval(s)) == pytest.approx(expected, rel=1e-12)
    assert rigid_sys.lyapunov(s) == pytest.approx(expected, rel=1e-12)


def test_generic_matches_analytic_gradient(system):
    rng = np.random.default_rng(12)
    for _ in range(300):
        x = system.sample_state(rng)
        ga = np.array(system.gradient(x))
        gg = np.array(generic_gradient(system.integral_map, system.feedback_spec, x))
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
    spec = system.feedback_spec
    fun = lambda x: lyapunov_value(spec.gain_diag, spec.reference, system.integral_map.eval(x))
    for _ in range(60):
        x = system.sample_state(rng)
        gg = np.array(generic_gradient(system.integral_map, system.feedback_spec, x))
        gfd = central_difference_gradient(fun, x)
        assert np.linalg.norm(gg - gfd) <= 1e-5 * (1.0 + np.linalg.norm(gg))


def test_gradient_rejects_domain_violations(kepler_sys, pk_sys):
    origin = (0.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    for system in (kepler_sys, pk_sys):
        with pytest.raises(DomainError):
            generic_gradient(system.integral_map, system.feedback_spec, origin)
        with pytest.raises(DomainError):
            lyapunov_value(system.feedback_spec.gain_diag, system.feedback_spec.reference,
                           system.integral_map.eval(origin))
        block = np.array([system.sample_state(np.random.default_rng(k)) for k in range(5)])
        block[3] = origin
        with pytest.raises(DomainError, match="batch state 3"):
            generic_gradient(system.integral_map, system.feedback_spec, tuple(block.T))


def test_lyapunov_value_nonnegative(system):
    rng = np.random.default_rng(14)
    for _ in range(10_000):
        x = system.sample_state(rng)
        assert system.lyapunov(x) >= 0.0


def test_gain_doubling_doubles_gradient(system):
    rng = np.random.default_rng(15)
    doubled = FeedbackSpec(reference=system.feedback_spec.reference,
                           gain_diag=2.0 * np.array(system.feedback_spec.gain_diag))
    for _ in range(50):
        x = system.sample_state(rng)
        g1 = np.array(generic_gradient(system.integral_map, system.feedback_spec, x))
        g2 = np.array(generic_gradient(system.integral_map, doubled, x))
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
