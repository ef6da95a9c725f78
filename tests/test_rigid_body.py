import math

import numpy as np
import pytest

from conftest import (contract_models, drift_by_name, global_order_ratio, hat, pack,
                      random_rotation, rodrigues, run_with_metrics, sampled, state_with_lyapunov,
                      unpack)
from lyapint import rigid_body
from lyapint.integrators import euler_step, rk4_step, steps_for
from lyapint.systems import make_system


def frobenius_norm(a) -> float:
    """Matrix 2-norm sqrt(trace(A^T A)), i.e. the root of the entry-square sum."""
    return math.sqrt(float(np.sum(a * a)))


def so3_deviation(s) -> float:
    """||R^T R - I|| of a state in numpy: the oracle for the so3dev drift column."""
    R, _ = unpack(s)
    return frobenius_norm(R.T @ R - np.eye(3))


def test_frobenius_norm_identity():
    assert frobenius_norm(np.eye(3)) == pytest.approx(math.sqrt(3.0), rel=1e-15)


def test_frobenius_norm_zero():
    assert frobenius_norm(np.zeros((3, 3))) == 0.0


def test_frobenius_norm_scaled_identity():
    assert frobenius_norm(0.21 * np.eye(3)) == pytest.approx(
        math.sqrt(3 * 0.21**2), rel=1e-15)


def test_frobenius_norm_squared_is_entry_square_sum():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = rng.standard_normal((3, 3))
        assert frobenius_norm(a) ** 2 == pytest.approx(float(np.sum(a * a)), rel=1e-14)


@pytest.fixture(scope="module")
def params():
    p, _ = rigid_body.setup(None, rigid_body.BENCHMARK_GAINS)
    return p


def test_params_validation():
    with pytest.raises(ValueError):
        rigid_body.RigidBodyParams(inertia=(3, 2, -1), k0=1, k1=1, k2=1,
                                   E0=1.0, pi0=(1, 0, 0))
    with pytest.raises(ValueError):
        rigid_body.RigidBodyParams(inertia=(3, 2, 1), k0=0, k1=1, k2=1,
                                   E0=1.0, pi0=(1, 0, 0))
    with pytest.raises(ValueError):
        rigid_body.RigidBodyParams(inertia=(3, 2, 1), k0=1, k1=1, k2=1,
                                   E0=-1.0, pi0=(1, 0, 0))
    with pytest.raises(ValueError):
        rigid_body.RigidBodyParams(inertia=(3, 2, 1), k0=1, k1=1, k2=1,
                                   E0=1.0, pi0=(0, 0, 0))


def test_field_benchmark_value(params):
    s = pack(np.eye(3), (1.0, 1.0, 1.0))
    out = np.array(rigid_body.field(params, s))
    # (3,2,1) x (1,1,1) = (1,-2,1), then divide by the principal moments
    assert np.allclose(out[9:], [1 / 3, -1.0, 1.0], rtol=1e-15)
    assert np.array_equal(out[:9].reshape(3, 3), hat((1.0, 1.0, 1.0)))


def test_field_relative_equilibrium(params):
    s = pack(np.eye(3), (2.5, 0.0, 0.0))
    out = rigid_body.field(params, s)
    assert np.array_equal(out[9:], np.zeros(3))


def test_integrals_benchmark_values(params):
    s = pack(np.eye(3), (1.0, 1.0, 1.0))
    E, *pi, _ = rigid_body.invariant_components(params, s)
    assert E == 3.0
    assert pi == [3.0, 2.0, 1.0]


def test_integrals_zero_velocity(params):
    s = pack(np.eye(3), (0.0, 0.0, 0.0))
    E, *pi, _ = rigid_body.invariant_components(params, s)
    assert E == 0.0 and pi == [0.0, 0.0, 0.0]


def test_integrals_rotation_invariance(params):
    rng = np.random.default_rng(20)
    W = np.array([1.0, 1.0, 1.0])
    E_ref, *pi_ref, _ = rigid_body.invariant_components(params, pack(np.eye(3), W))
    for _ in range(20):
        R = random_rotation(rng)
        E, *pi, _ = rigid_body.invariant_components(params, pack(R, W))
        assert E == E_ref  # energy does not read R at all
        assert np.linalg.norm(pi) == pytest.approx(np.linalg.norm(pi_ref), rel=1e-12)


def test_gradient_vanishes_on_level_set_of_rotated_start():
    rng = np.random.default_rng(21)
    for _ in range(10):
        R0 = random_rotation(rng)
        W0 = rng.uniform(-2, 2, 3)
        if np.linalg.norm(W0) < 0.1:
            continue
        p, _ = rigid_body.setup(pack(R0, W0), (50, 100, 50), inertia=(3, 2, 1))
        g = rigid_body.lyapunov_gradient(p, pack(R0, W0))
        assert np.linalg.norm(g) <= 1e-12


def test_modified_field_against_independent_transcription(params):
    # the full right-hand side written out in one piece
    def transcription(R, W):
        inertia = np.array(params.inertia)
        momentum = inertia * W
        piv = R @ momentum
        dpi = piv - params.pi0
        dE = 0.5 * float(W @ momentum) - params.E0
        Rdot = (R @ hat(W) - params.k0 * (R @ (R.T @ R - np.eye(3)))
                - params.k2 * np.outer(dpi, momentum))
        Wdot = (np.cross(momentum, W) / inertia - params.k1 * dE * momentum
                - params.k2 * inertia * (R.T @ dpi))
        return Rdot, Wdot

    rng = np.random.default_rng(23)
    for _ in range(20):
        R = np.eye(3) + rng.uniform(-0.4, 0.4, (3, 3))
        W = rng.uniform(-2, 2, 3)
        out = np.array(rigid_body.modified_field(params, pack(R, W)))
        Rdot, Wdot = transcription(R, W)
        assert np.allclose(out[:9].reshape(3, 3), Rdot, rtol=1e-13, atol=1e-13)
        assert np.allclose(out[9:], Wdot, rtol=1e-13, atol=1e-13)


def numpy_integral_map(p, s):
    # the integral map's values and Jacobian as matrix products and outer products
    R, W = unpack(s)
    momentum = p.inertia * W
    values = np.empty(13)
    values[:9] = (R.T @ R - np.eye(3)).ravel()
    values[9] = 0.5 * float(W @ momentum)
    values[10:] = R @ momentum
    rows = np.zeros((13, 12))
    unit = np.eye(3)
    for i in range(3):
        for j in range(3):
            rows[3 * i + j, :9] = (np.outer(R[:, j], unit[i]) + np.outer(R[:, i], unit[j])).ravel()
    rows[9, 9:] = momentum
    for i in range(3):
        rows[10 + i, :9] = np.outer(unit[i], momentum).ravel()
    rows[10:, 9:] = R * p.inertia
    return values, rows


@pytest.mark.parametrize("model", contract_models("rigid_body"))
def test_field_and_integral_map_match_numpy_forms(model):
    # the float field, eval and Jacobian against their numpy forms
    p, fim = model.params, model.integral_map
    for s in sampled(model, 1000, 28).tolist():
        R, W = unpack(s)
        field = np.concatenate(((R @ hat(W)).ravel(), np.cross(p.inertia * W, W) / p.inertia))
        assert np.abs(np.array(model.field(s)) - field).max() <= 1e-14 * (1.0 + np.abs(field).max())
        values, rows = numpy_integral_map(p, s)
        jac = np.array(fim.jacobian(s))
        assert jac.shape == (13, 12)
        assert np.array_equal(jac, rows)
        assert np.abs(np.array(fim.eval(s)) - values).max() <= 1e-14 * (1.0 + np.abs(values).max())


def test_sampler_draws_the_states_of_the_numpy_determinant_sampler():
    # the float triple-product determinant against np.linalg.det, same draws
    def numpy_sampler(rng):
        while True:
            R = np.eye(3) + rng.uniform(-0.5, 0.5, size=(3, 3))
            w = rng.uniform(-2.0, 2.0, size=3)  # drawn with R: a try is 12 uniforms
            if np.linalg.det(R) > 1e-3:
                return pack(R, w)

    sample = make_system("rigid_body").sample_state
    new, old = np.random.default_rng(1), np.random.default_rng(1)
    drawn = np.array([sample(new) for _ in range(10_000)])
    assert np.array_equal(drawn, np.array([numpy_sampler(old) for _ in range(10_000)]))
    assert np.array_equal(new.random(4), old.random(4))


def test_drift_metrics_match_numpy_integrals(rigid_sys):
    p = rigid_sys.params
    s0 = rigid_sys.initial_state
    R0, W0 = unpack(s0)
    pi_start = R0 @ (p.inertia * W0)
    E_start = 0.5 * float(W0 @ (p.inertia * W0))
    for s in sampled(rigid_sys, 1000, 26).tolist():
        R, W = unpack(s)
        momentum = p.inertia * W
        E = 0.5 * float(W @ momentum)
        pi = R @ momentum
        defect_sq = float(np.sum((R.T @ R - np.eye(3)) ** 2))
        expected = {
            "dE": abs(E - E_start),
            "dPi": np.linalg.norm(pi - pi_start),
            "so3dev": math.sqrt(defect_sq),
            "V": (0.25 * p.k0 * defect_sq + 0.5 * p.k1 * (E - p.E0) ** 2
                  + 0.5 * p.k2 * np.sum((pi - p.pi0) ** 2)),
        }
        got = drift_by_name(rigid_sys, s)
        assert set(got) == set(expected)
        assert got["so3dev"] == pytest.approx(so3_deviation(s), rel=1e-14)
        assert got["V"] == pytest.approx(rigid_sys.lyapunov(s), rel=1e-14)
        # dE and dPi are differences of O(1) integrals: absolute roundoff
        for key, value in expected.items():
            assert abs(got[key] - value) <= 1e-13 * (1.0 + abs(value)), key


def test_euler_step_pulls_back_toward_rotation_group(params):
    s = pack(1.05 * np.eye(3), (1.0, 1.0, 1.0))
    before = so3_deviation(s)
    s1 = euler_step(lambda x: rigid_body.modified_field(params, x), s, 1e-4)
    assert so3_deviation(s1) < before


def axis_rotation(axis, angle):
    """The 3x3 rotation by angle about principal axis 0, 1 or 2."""
    c, s = math.cos(angle), math.sin(angle)
    q = np.eye(3)
    i, j = ((1, 2), (2, 0), (0, 1))[axis]
    q[i, i] = c
    q[j, j] = c
    q[i, j] = -s
    q[j, i] = s
    return q


def numpy_splitting_step(p, s, h):
    """Reference: the five single-axis rotations composed as numpy 3x3
    matrices, R <- R Q and m <- Q^T m for the body momentum m = I Omega."""
    R, W = unpack(s)
    inertia = np.array(p.inertia)
    momentum = inertia * W
    for axis, frac in ((0, 0.5), (1, 0.5), (2, 1.0), (1, 0.5), (0, 0.5)):
        q = axis_rotation(axis, (momentum[axis] / inertia[axis]) * (frac * h))
        R = R @ q
        momentum = q.T @ momentum
    return pack(R, momentum / inertia)


@pytest.mark.parametrize("h", [1e-4, 1e-2, 0.1])
@pytest.mark.parametrize("inertia", [(3.0, 2.0, 1.0), (0.7, 1.9, 4.2)])
def test_splitting_step_matches_numpy_rotation_composition(inertia, h, rigid_sys):
    # one float step against the matrix composition, from the benchmark start,
    # from states off SO(3) and from rotations; the two round their products
    # differently, by at most 1e-15 relative per step (measured: 3.1e-16)
    p, s0 = rigid_body.setup(None, rigid_body.BENCHMARK_GAINS, inertia=inertia)
    rng = np.random.default_rng(31)
    starts = ([s0] + sampled(rigid_sys, 100, 30).tolist()
              + [pack(random_rotation(rng), rng.uniform(-2, 2, 3)) for _ in range(100)])
    for s in starts:
        got = np.array(rigid_body.splitting_step(p, s, h))
        expected = np.array(numpy_splitting_step(p, s, h))
        assert np.abs(got - expected).max() <= 1e-15 * (1.0 + np.abs(expected).max())


def test_splitting_single_axis_is_exact_rotation(params):
    s = pack(np.eye(3), (2.0, 0.0, 0.0))
    E0, *pi0, _ = rigid_body.invariant_components(params, s)
    x = s
    h = 0.05
    for _ in range(200):
        x = rigid_body.splitting_step(params, x, h)
    E, *pi, _ = rigid_body.invariant_components(params, x)
    assert E == pytest.approx(E0, rel=1e-13)
    assert np.allclose(pi, pi0, atol=1e-12)
    R, _ = unpack(x)
    assert np.allclose(R, rodrigues((1, 0, 0), 2.0 * h * 200), atol=1e-10)


def test_splitting_preserves_rotation_group(params):
    x = pack(np.eye(3), (1.0, 1.0, 1.0))
    worst_dev = 0.0
    worst_dpi = 0.0
    _, *pi0, _ = rigid_body.invariant_components(params, x)
    for _ in range(100_000):
        x = rigid_body.splitting_step(params, x, 1e-3)
        worst_dev = max(worst_dev, so3_deviation(x))
    _, *pi, _ = rigid_body.invariant_components(params, x)
    assert worst_dev <= 1e-12
    assert np.linalg.norm(np.subtract(pi, pi0)) <= 1e-11


def test_splitting_is_second_order(params, rigid_sys):
    ref = rigid_sys.initial_state
    for _ in range(10_000):
        ref = rk4_step(rigid_sys.field, ref, 1e-4)
    ratio = global_order_ratio(
        lambda f, x, h: rigid_body.splitting_step(params, x, h),
        None, rigid_sys.initial_state, 1.0, 0.01, ref)
    assert 3.6 <= ratio <= 4.4


def test_gain_bound_benchmark(params):
    assert rigid_body.gain_bound(params) == 12.5


def test_gain_bound_small_case():
    p = rigid_body.RigidBodyParams(inertia=(3, 2, 1), k0=4, k1=4, k2=4,
                                   E0=1.0, pi0=(1.0, 0.0, 0.0))
    assert rigid_body.gain_bound(p) == 1.0


def test_gain_bound_homogeneous_in_gains(params):
    scaled = rigid_body.RigidBodyParams(
        inertia=params.inertia, k0=3 * params.k0, k1=3 * params.k1,
        k2=3 * params.k2, E0=params.E0, pi0=params.pi0)
    assert rigid_body.gain_bound(scaled) == pytest.approx(
        3 * rigid_body.gain_bound(params), rel=1e-15)


def test_reference_flow_conserves_integrals(rigid_ref_period):
    assert rigid_ref_period.maxima["dE"] <= 1e-10
    assert rigid_ref_period.maxima["dPi"] <= 1e-9


def test_feedback_attracts_from_unit_level(rigid_sys):
    x = state_with_lyapunov(rigid_sys, 1.0)
    assert rigid_sys.lyapunov(x) == pytest.approx(1.0, abs=1e-9)
    reached = None
    for k in range(steps_for(5.0, 1e-4)):
        x = euler_step(rigid_sys.modified_field, x, 1e-4)
        if rigid_sys.lyapunov(x) < 1e-6:
            reached = (k + 1) * 1e-4
            break
    assert reached is not None and reached <= 5.0


def rk4_return_time(system, h, t_guess):
    """The RK4 time, at step h, in [0.75, 1.25] t_guess at which Omega comes
    closest to its start, and that distance over |Omega(0)|."""
    run = run_with_metrics(system, "rk4", h, 1.25 * t_guess, state_stride=1)
    w = run.states[:, 9:]
    gap = np.where(run.times >= 0.75 * t_guess, np.linalg.norm(w - w[0], axis=1), np.inf)
    k = int(np.argmin(gap))
    return run.times[k], gap[k] / np.linalg.norm(w[0])


@pytest.mark.parametrize("inertia, expected", [
    ((3.0, 2.0, 1.0), 6.422703), ((5.0, 2.0, 1.0), 2.547204), ((2.5, 1.5, 0.75), 5.052194)])
def test_period_from_the_moments_is_the_rk4_return_time(inertia, expected):
    system = make_system("rigid_body", inertia=inertia)
    assert system.period == pytest.approx(expected, abs=1e-6)
    h = 1e-3
    t_return, miss = rk4_return_time(system, h, system.period)
    assert abs(t_return - system.period) <= 2.0 * h
    assert miss <= 1e-2


def test_period_limits_at_principal_axes_and_equal_moments():
    def period(inertia, w):
        return make_system("rigid_body", inertia=inertia,
                           initial_state=(1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, *w)).period

    # K(k) at k^2 = 1/2 (Abramowitz and Stegun, table 17.1): T = 4 K sqrt(3/4)
    assert period((3.0, 2.0, 1.0), (1.0, 1.0, 1.0)) == pytest.approx(
        4.0 * 1.8540746773013719 * math.sqrt(0.75), rel=1e-15)
    # rotation about the largest or the smallest axis: the period of small
    # oscillations about it, 2 pi / (w sqrt((I - Ia) (I - Ib) / (Ia Ib)))
    assert period((3.0, 2.0, 1.0), (0.5, 0.0, 0.0)) == pytest.approx(
        2.0 * math.pi / (0.5 * math.sqrt(2.0 * 1.0 / (1.0 * 2.0))), rel=1e-14)
    assert period((3.0, 2.0, 1.0), (0.0, 0.0, 2.0)) == pytest.approx(
        2.0 * math.pi / (2.0 * math.sqrt(2.0 * 1.0 / (3.0 * 2.0))), rel=1e-14)
    # a symmetric top precesses at (I3 - I1) w3 / I1 about its axis
    assert period((2.0, 2.0, 1.0), (1.0, 1.0, 1.0)) == pytest.approx(
        2.0 * math.pi * 2.0 / (2.0 - 1.0), rel=1e-14)
    assert period((2.0, 1.0, 1.0), (1.0, 0.3, -0.2)) == pytest.approx(
        2.0 * math.pi * 1.0 / (2.0 - 1.0), rel=1e-14)
    # the middle axis, the separatrix through it and three equal moments
    # have no period
    assert period((3.0, 2.0, 1.0), (0.0, 1.0, 0.0)) == math.inf
    assert period((9.0, 5.0, 1.0), (1.0, 0.0, 3.0)) == math.inf  # M^2 = 2 E I2 = 90
    assert period((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)) == math.inf


def test_run_with_equal_moments_exits_0(tmp_path, capsys):
    from lyapint.cli import main

    # the period is inf, and nothing in a run reads it
    out = tmp_path / "equal.csv"
    config = tmp_path / "equal.ini"
    config.write_text("[experiment]\nsystem = rigid_body\nmethod = feedback_euler\n"
                      "t_end = 0.001\n[constants]\ninertia = 1,1,1\n")
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
