import math

import numpy as np
import pytest

from conftest import drift_by_name, sampled
from lyapint import kepler
from lyapint.cli import ExperimentConfig, make_advance, run_experiment
from lyapint.integrators import euler_step, rollout, steps_for
from lyapint.systems import make_system


@pytest.fixture(scope="module")
def params():
    p, _ = kepler.setup(None, kepler.BENCHMARK_GAINS)
    return p


@pytest.fixture(scope="module")
def start():
    _, s0 = kepler.setup(None, kepler.BENCHMARK_GAINS)
    return s0


def test_params_validation():
    with pytest.raises(ValueError):
        kepler.KeplerParams(mu=1.0, k1=4, k2=2, L0=(0, 0, 0), A0=(0.1, 0, 0))
    with pytest.raises(ValueError):  # hyperbolic: |A0| >= mu
        kepler.KeplerParams(mu=1.0, k1=4, k2=2, L0=(0, 0, 1), A0=(1.5, 0, 0))
    with pytest.raises(ValueError):  # not orthogonal
        kepler.KeplerParams(mu=1.0, k1=4, k2=2, L0=(0, 0, 1), A0=(0.1, 0, 0.1))
    with pytest.raises(ValueError):
        kepler.KeplerParams(mu=1.0, k1=-1, k2=2, L0=(0, 0, 1), A0=(0.1, 0, 0))


def test_field_benchmark_value(params, start):
    out = kepler.field(params, start)
    assert np.array_equal(out[:3], start[3:])
    assert np.allclose(out[3:], [-1.0, 0.0, 0.0], atol=1e-15)


def test_field_circular_balance(params):
    s = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0)
    out = np.array(kepler.field(params, s))
    speed_sq_over_r = float(np.dot(s[3:], s[3:])) / 1.0
    assert np.linalg.norm(out[3:]) == pytest.approx(speed_sq_over_r, rel=1e-15)


def test_field_inverse_square_scaling(params):
    s = np.array([0.3, -0.7, 0.2, 0.1, 0.0, -0.4])
    lam = 2.0
    scaled = s.copy()
    scaled[:3] *= lam
    a1 = np.array(kepler.field(params, tuple(s.tolist()))[3:])
    a2 = np.array(kepler.field(params, tuple(scaled.tolist()))[3:])
    assert np.allclose(a2 * lam**2, a1, rtol=1e-14)


def invariants(p, s):
    """(L, A, E) at s, with L and A as arrays, from ``kepler.invariant_components``."""
    l0, l1, l2, a0, a1, a2, E = kepler.invariant_components(p, s)
    return np.array((l0, l1, l2)), np.array((a0, a1, a2)), E


def test_invariants_benchmark_values(params, start):
    L, A, E = invariants(params, start)
    assert np.allclose(L, [0.0, 0.0, math.sqrt(1.8)], atol=1e-15)
    assert np.allclose(A, [0.8, 0.0, 0.0], atol=1e-15)
    assert E == pytest.approx(-0.1, abs=1e-15)


def test_energy_relation_at_benchmark(params, start):
    L, A, E = invariants(params, start)
    # |A|^2 = mu^2 + 2 E |L|^2: 0.64 = 1 + 2(-0.1)(1.8)
    assert float(A @ A) == pytest.approx(
        params.mu**2 + 2 * E * float(L @ L), abs=1e-14)


def test_energy_relation_random_states(params):
    rng = np.random.default_rng(30)
    for _ in range(2000):
        s = np.concatenate((rng.uniform(-2, 2, 3), rng.uniform(-1.5, 1.5, 3)))
        if np.linalg.norm(s[:3]) < 0.2:
            continue
        L, A, E = invariants(params, tuple(s.tolist()))
        lhs = float(A @ A)
        rhs = params.mu**2 + 2 * E * float(L @ L)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs) + abs(rhs))


def test_angular_momentum_orthogonal_to_lrl(params):
    rng = np.random.default_rng(31)
    for _ in range(2000):
        s = np.concatenate((rng.uniform(-2, 2, 3), rng.uniform(-1.5, 1.5, 3)))
        if np.linalg.norm(s[:3]) < 0.2:
            continue
        L, A, _ = invariants(params, tuple(s.tolist()))
        assert abs(float(L @ A)) <= 1e-12 * (1.0 + np.linalg.norm(L) * np.linalg.norm(A))


def test_gradient_vanishes_on_target_orbit(params):
    for psi in np.linspace(0.0, 2 * math.pi, 9):
        s = kepler.state_at_eccentric_anomaly(params, psi)
        g = kepler.lyapunov_gradient(params, s)
        assert np.linalg.norm(g) <= 1e-12


def test_drift_metrics_match_numpy_invariants(kepler_sys):
    p = kepler_sys.params
    s0 = kepler_sys.initial_state
    L0, A0, E0 = invariants(p, s0)
    for s in sampled(kepler_sys, 1000, 36).tolist():
        L, A, E = invariants(p, s)
        expected = {
            "dL": np.linalg.norm(L - L0),
            "dA": np.linalg.norm(A - A0),
            "dE": abs(E - E0),
            "V": 0.5 * p.k1 * np.sum((L - p.L0) ** 2) + 0.5 * p.k2 * np.sum((A - p.A0) ** 2),
        }
        got = drift_by_name(kepler_sys, s)
        assert set(got) == set(expected)
        for key, value in expected.items():
            assert abs(got[key] - value) <= 1e-14 * abs(value), key


def test_strided_csv_rows_are_17_digit_values_of_the_trajectory(tmp_path, kepler_sys):
    out = tmp_path / "stride3.csv"
    cfg = ExperimentConfig(system="kepler", method="feedback_euler", h=0.005,
                           t_end=0.5, output_path=str(out), sample_stride=3)
    run_experiment(cfg)
    n = steps_for(0.5, 0.005)
    lines = out.read_text().splitlines()
    # step 0, every third step, and the final step (n = 100 is not a multiple of 3)
    assert len(lines) - 1 == 1 + n // 3 + 1
    times, states = rollout(make_advance(kepler_sys, "feedback_euler", cfg),
                            kepler_sys.initial_state, 0.005, n, stride=3)
    for line, t, s in zip(lines[1:], times, states.tolist(), strict=True):
        values = (t, *s, *kepler_sys.drift_metrics(s))
        assert line.split(",") == [format(v, ".17g") for v in values]


def test_euler_step_decreases_v_off_orbit(params, start):
    s = tuple((start + np.array([0.02, -0.01, 0.0, 0.01, 0.02, 0.0])).tolist())
    v0 = kepler.lyapunov(params, s)
    s1 = euler_step(lambda x: kepler.modified_field(params, x), s, 0.005)
    assert kepler.lyapunov(params, s1) < v0


def test_orbit_geometry_benchmark(params):
    a, e, period = kepler.orbit_geometry(params)
    assert a == pytest.approx(5.0, abs=1e-12)
    assert e == pytest.approx(0.8, abs=1e-15)
    assert period == pytest.approx(70.2481, abs=1e-4)


def test_orbit_geometry_circular():
    p = kepler.KeplerParams(mu=1.0, k1=1.0, k2=1.0, L0=(0.0, 0.0, 1.0),
                            A0=(0.0, 0.0, 0.0))
    a, e, period = kepler.orbit_geometry(p)
    assert e == 0.0
    assert a == pytest.approx(1.0, rel=1e-15)
    assert period == pytest.approx(2 * math.pi, rel=1e-15)


def test_gain_bound_benchmark(params):
    assert kepler.gain_bound(params) == pytest.approx(0.04, rel=1e-12)


def test_gain_bound_symmetric_case():
    p = kepler.KeplerParams(mu=2.0, k1=2.0, k2=2.0, L0=(0.0, 0.0, 1.0),
                            A0=(1.0, 0.0, 0.0))
    assert kepler.gain_bound(p) == pytest.approx(1.0, rel=1e-15)


def test_gain_bound_homogeneous(params):
    scaled = kepler.KeplerParams(mu=params.mu, k1=5 * params.k1, k2=5 * params.k2,
                                 L0=params.L0, A0=params.A0)
    assert kepler.gain_bound(scaled) == pytest.approx(5 * kepler.gain_bound(params),
                                                      rel=1e-15)


def test_state_at_perihelion_matches_benchmark_start(params, start):
    s = kepler.state_at_eccentric_anomaly(params, 0.0)
    assert np.allclose(s, start, atol=1e-12)


def test_orbit_sampling_stays_on_level_set(params):
    for psi in np.linspace(0.0, 2 * math.pi, 17):
        s = kepler.state_at_eccentric_anomaly(params, psi)
        assert kepler.lyapunov(params, s) <= 1e-25


def test_reference_flow_conserves_integrals(kepler_ref_period):
    assert kepler_ref_period.maxima["dL"] <= 1e-10
    assert kepler_ref_period.maxima["dA"] <= 1e-9


def test_no_spurious_critical_points_in_basin(params):
    # sampled states inside the admissible sublevel set have nonzero
    # gradient unless V is at numerical zero
    rng = np.random.default_rng(33)
    c = kepler.gain_bound(params)
    checked = 0
    for _ in range(5000):
        psi = rng.uniform(0.0, 2 * math.pi)
        s = kepler.state_at_eccentric_anomaly(params, psi)
        s = tuple((s + rng.uniform(-0.05, 0.05, 6)).tolist())
        v = kepler.lyapunov(params, s)
        if v > c:
            continue
        checked += 1
        if np.linalg.norm(kepler.lyapunov_gradient(params, s)) <= 1e-10:
            assert v <= 1e-20
    assert checked > 500


def numpy_orbital_sampler(rng, r_min=0.2):
    """The orbital sampler as numpy vectors: one whole try of rng.uniform, np.dot radius."""
    while True:
        s = np.concatenate((rng.uniform(-2.0, 2.0, size=3), rng.uniform(-1.5, 1.5, size=3)))
        if float(np.dot(s[:3], s[:3])) >= r_min * r_min:
            return s


def numpy_perturbed_kepler_sampler(rng):
    return numpy_orbital_sampler(rng, r_min=0.25)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name, reference", [
    ("kepler", numpy_orbital_sampler),
    ("perturbed_kepler", numpy_perturbed_kepler_sampler),
])
def test_orbital_samplers_draw_the_states_of_the_numpy_samplers(name, reference, seed):
    # the component rule makes the same generator draws, try for try
    sample = make_system(name).sample_state
    new, old = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = np.array([sample(new) for _ in range(10_000)])
    assert np.array_equal(drawn, np.array([reference(old) for _ in range(10_000)]))
    assert np.array_equal(new.random(4), old.random(4))
