import dataclasses
import math

import numpy as np
import pytest

from conftest import central_difference_gradient, stacked
from lyapint import kepler, perturbed_kepler as pk
from lyapint.errors import DomainError
from lyapint.feedback import generic_gradient
from lyapint.integrators import euler_step, rk4_step, steps_for
from lyapint.systems import make_system
from test_kepler import random_states


@pytest.fixture(scope="module")
def params():
    p, _ = pk.setup(None, pk.BENCHMARK_GAINS)
    return p


@pytest.fixture(scope="module")
def start():
    _, s0 = pk.setup(None, pk.BENCHMARK_GAINS)
    return s0


def test_potential_rejects_bad_constants():
    for mu, delta in ((-1.0, 0.1), (0.0, 0.1), (math.nan, 0.1), (1.0, -0.1), (1.0, math.nan)):
        with pytest.raises(ValueError, match="need mu > 0 and delta >= 0"):
            pk.PerturbedKeplerParams(mu=mu, delta=delta, k1=2, k2=3, E0=-0.5, L0=(0, 0, 1))
        with pytest.raises(ValueError, match="need mu > 0 and delta >= 0"):
            make_system("perturbed_kepler", mu=mu, delta=delta)


def test_params_validation():
    with pytest.raises(ValueError):
        pk.PerturbedKeplerParams(mu=1.0, delta=0.0025, k1=2, k2=3, E0=-0.5, L0=(0, 0, 0))
    with pytest.raises(ValueError):
        pk.PerturbedKeplerParams(mu=1.0, delta=0.0025, k1=0, k2=3, E0=-0.5, L0=(0, 0, 1))


def test_potential_derivative_matches_finite_differences(params):
    for r in np.geomspace(0.05, 50.0, 40):
        eps = 1e-6 * r
        fd = (pk.u(params, r + eps) - pk.u(params, r - eps)) / (2 * eps)
        assert pk.u_prime(params, r) == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("mu, s0", [
    (1.0, (1.0, 0.0, 0.0, 0.0, 1.2, 0.0)),
    (2.5, (0.7, -0.2, 0.1, 0.3, 1.9, -0.4)),
    (0.4, (1.5, 0.5, 0.0, -0.1, 0.3, 0.2)),
])
def test_period_at_zero_delta_is_the_kepler_period(mu, s0):
    # at delta = 0 the osculating ellipse is the orbit: both periods are
    # 2 pi sqrt(a^3 / mu), from E0 here and from (L0, A0) in kepler
    period = make_system("perturbed_kepler", initial_state=s0, mu=mu, delta=0.0).period
    _, _, expected = kepler.orbit_geometry(kepler.setup(s0, (4.0, 2.0), mu=mu)[0])
    assert period == pytest.approx(expected, rel=1e-12)


def test_zero_delta_reduces_to_kepler(start):
    pp, _ = pk.setup(start, (2.0, 3.0), mu=1.0, delta=0.0)
    kp, _ = kepler.setup(start, (4.0, 2.0), mu=1.0)
    rng = np.random.default_rng(40)
    for _ in range(100):
        s = tuple(np.concatenate((rng.uniform(-2, 2, 3), rng.uniform(-1.5, 1.5, 3))).tolist())
        if np.linalg.norm(s[:3]) < 0.25:
            continue
        assert np.allclose(pk.field(pp, s), kepler.field(kp, s),
                           rtol=1e-14, atol=1e-14)
        assert np.allclose(pk.accel(pp, s[:3]), kepler.accel(kp, s[:3]),
                           rtol=1e-14, atol=1e-14)
        E, *L = pk.invariant_components(pp, s)
        *Lk, _, _, _, Ek = kepler.invariant_components(kp.mu, s)
        assert E == pytest.approx(Ek, rel=1e-14, abs=1e-14)
        assert L == Lk


def test_field_benchmark_value(params):
    s = (0.4, 0.0, 0.0, 0.0, 2.0, 0.0)
    out = pk.field(params, s)
    # U'(0.4) = 1/0.16 + 3 * 0.0025 / 0.4^4 = 6.54296875
    assert np.array_equal(out[:3], s[3:])
    assert out[3] == pytest.approx(-6.54296875, rel=1e-12)
    assert out[4] == 0.0 and out[5] == 0.0


def test_force_is_central(params):
    rng = np.random.default_rng(41)
    for _ in range(200):
        s = tuple(np.concatenate((rng.uniform(-2, 2, 3), rng.uniform(-1.5, 1.5, 3))).tolist())
        if np.linalg.norm(s[:3]) < 0.25:
            continue
        a = np.array(pk.field(params, s)[3:])
        torque = np.cross(s[:3], a)
        assert np.linalg.norm(torque) <= 1e-13 * (1.0 + np.linalg.norm(a))


def test_field_rejects_origin(params):
    with pytest.raises(DomainError):
        pk.field(params, (0.0, 0.0, 0.0, 1.0, 0.0, 0.0))


def invariants(p, s):
    """(E, L) at s, with L as an array, from ``perturbed_kepler.invariant_components``."""
    E, l0, l1, l2 = pk.invariant_components(p, s)
    return E, np.array((l0, l1, l2))


def test_invariants_benchmark_values(params, start):
    E, L = invariants(params, start)
    assert E == pytest.approx(-0.5390625, abs=1e-15)
    assert np.allclose(L, [0.0, 0.0, 0.8], atol=1e-16)


def test_invariants_zero_velocity(params):
    s = (0.5, 0.0, 0.0, 0.0, 0.0, 0.0)
    E, L = invariants(params, s)
    assert E == pk.u(params, 0.5)
    assert np.array_equal(L, np.zeros(3))


def test_invariants_rotation_property(params):
    from test_rigid_body import random_rotation

    rng = np.random.default_rng(42)
    s = np.array([0.7, -0.3, 0.4, 0.2, 1.1, -0.5])
    E_ref, L_ref = invariants(params, tuple(s.tolist()))
    for _ in range(20):
        Q = random_rotation(rng)
        rotated = np.concatenate((Q @ s[:3], Q @ s[3:]))
        E, L = invariants(params, tuple(rotated.tolist()))
        assert E == pytest.approx(E_ref, rel=1e-13)
        assert np.allclose(L, Q @ L_ref, atol=1e-13)


# (mu, delta, k1, k2, seed): the benchmark constants, and a stronger
# perturbation with other gains
KERNEL_CASES = [(1.0, 0.0025, 2.0, 3.0, 44), (2.5, 0.04, 0.5, 7.0, 45)]


def case_params(mu, delta, k1, k2):
    return pk.setup((1.0, 0.2, -0.1, 0.1, 1.1, 0.3), (k1, k2), mu=mu, delta=delta)[0]


def numpy_invariants(p, s):
    """E = 0.5 v.v + U(|x|) and L = x cross v, evaluated with numpy."""
    s = np.array(s)
    x, v = s[:3], s[3:]
    return 0.5 * float(v @ v) + pk.u(p, float(np.linalg.norm(x))), np.cross(x, v)


@pytest.mark.parametrize("mu, delta, k1, k2, seed", KERNEL_CASES)
def test_eval_matches_numpy_energy_and_angular_momentum(mu, delta, k1, k2, seed):
    p = case_params(mu, delta, k1, k2)
    evaluate = pk.integral_map(p).eval
    for s in random_states(seed, 1000):
        E, L = numpy_invariants(p, s)
        got = np.array(evaluate(s))
        assert got.shape == (4,)
        assert abs(got[0] - E) <= 1e-14 * (1.0 + abs(E))
        assert np.abs(got[1:] - L).max() <= 1e-15 * (1.0 + np.linalg.norm(L))


@pytest.mark.parametrize("mu, delta, k1, k2, seed", KERNEL_CASES)
def test_jacobian_matches_finite_differences(mu, delta, k1, k2, seed):
    # the float Jacobian against central differences of eval
    fim = pk.integral_map(case_params(mu, delta, k1, k2))
    for s in random_states(seed, 1000):
        jac = np.array(fim.jacobian(s))
        assert jac.shape == (4, 6)
        scale = 1.0 + np.abs(jac).max()
        fd = np.array([central_difference_gradient(lambda y, i=i: fim.eval(y)[i], s)
                       for i in range(4)])
        assert np.abs(jac - fd).max() <= 1e-6 * scale



@pytest.mark.parametrize("mu, delta, k1, k2, seed", KERNEL_CASES)
def test_modified_field_matches_jacobian_transpose_oracle(mu, delta, k1, k2, seed):
    # the float gradient kernel against field - Df^T K (f - f0) built from eval and jacobian
    p = case_params(mu, delta, k1, k2)
    fim = pk.integral_map(p)
    worst = 0.0
    for s in random_states(seed, 1000):
        expected = np.array(pk.field(p, s)) - np.array(generic_gradient(fim, p.K, p.f0, s))
        diff = np.linalg.norm(np.array(pk.modified_field(p, s)) - expected)
        worst = max(worst, diff / (1.0 + np.linalg.norm(expected)))
    assert worst <= 1e-12


@pytest.mark.parametrize("mu, delta, k1, k2, seed", KERNEL_CASES)
def test_batched_kernels_equal_single_state_results_bit_for_bit(mu, delta, k1, k2, seed):
    # each kernel on a block's columns: entry i of every result column is
    # the kernel's result at state i
    p = case_params(mu, delta, k1, k2)
    states = random_states(seed, 2000)
    columns = tuple(np.array(states).T)
    for kernel in (pk.field, pk.lyapunov_gradient, pk.modified_field):
        single = np.array([kernel(p, s) for s in states])
        assert stacked(kernel(p, columns)).tobytes() == single.tobytes()
    single = np.array([pk.accel(p, s[:3]) for s in states])
    assert stacked(pk.accel(p, columns[:3])).tobytes() == single.tobytes()


@pytest.mark.parametrize("mu, delta, k1, k2, seed", KERNEL_CASES)
def test_modified_field_is_field_minus_gradient_bit_for_bit(mu, delta, k1, k2, seed):
    p = case_params(mu, delta, k1, k2)
    for s in random_states(seed, 2000):
        assert np.array_equal(pk.modified_field(p, s),
                              np.array(pk.field(p, s)) - np.array(pk.lyapunov_gradient(p, s)))


def test_batch_with_a_state_at_the_origin_raises(params):
    states = np.array(random_states(46, 10))
    states[3, :3] = 0.0
    columns = tuple(states.T)
    for kernel in (pk.field, pk.lyapunov_gradient, pk.modified_field):
        with pytest.raises(DomainError, match="batch state 3 "):
            kernel(params, columns)
    with pytest.raises(DomainError, match="batch state 3 "):
        pk.accel(params, columns[:3])


def test_energy_guard_rejects_a_block_with_one_non_finite_energy(params):
    # |v|^2 overflows at state 2, so its energy is inf, on its own and in a block
    states = np.array(random_states(47, 4))
    states[2, 3] = 1e200
    with pytest.raises(DomainError, match="not finite"):
        pk.invariant_components(params, tuple(states[2].tolist()))
    with pytest.raises(DomainError, match="batch state 2"), np.errstate(over="ignore"):
        pk.invariant_components(params, tuple(states.T))

@pytest.mark.parametrize("mu, delta, k1, k2, seed", KERNEL_CASES)
def test_drift_metrics_match_numpy_invariants(mu, delta, k1, k2, seed):
    s0 = np.array([0.9, -0.3, 0.2, 0.2, 1.0, -0.1])
    system = make_system("perturbed_kepler", initial_state=s0, gains={"k1": k1, "k2": k2},
                         mu=mu, delta=delta)
    p = system.params
    E0, L0 = numpy_invariants(p, s0)
    for s in random_states(seed, 1000):
        E, L = numpy_invariants(p, s)
        expected = {
            "dE": abs(E - E0),
            "dL": np.linalg.norm(L - L0),
            "V": 0.5 * p.k1 * (E - p.E0) ** 2 + 0.5 * p.k2 * np.sum((L - p.L0) ** 2),
        }
        got = system.drift_metrics(s)
        assert set(got) == set(expected)
        for key, value in expected.items():
            assert abs(got[key] - value) <= 1e-13 * (1.0 + abs(value)), key


def test_gradient_vanishes_on_level_set(params, start, pk_runs):
    # states along the high-accuracy reference trajectory stay on the level set
    for s in pk_runs["reference"].states[:: len(pk_runs["reference"].states) // 8]:
        g = pk.lyapunov_gradient(params, tuple(s.tolist()))
        assert np.linalg.norm(g) <= 1e-10


def test_orthogonality_identity(params):
    rng = np.random.default_rng(43)
    for _ in range(2000):
        s = tuple(np.concatenate((rng.uniform(-2, 2, 3), rng.uniform(-1.5, 1.5, 3))).tolist())
        if np.linalg.norm(s[:3]) < 0.25:
            continue
        g = np.array(pk.lyapunov_gradient(params, s))
        f = np.array(pk.field(params, s))
        assert abs(float(g @ f)) <= 1e-12 * (1.0 + np.linalg.norm(g) * np.linalg.norm(f))


def test_modified_field_on_level_set(params, start):
    assert np.array_equal(pk.modified_field(params, start),
                          pk.field(params, start))


def test_euler_step_decreases_v_away_from_perihelion(params):
    # apoapsis-region state slightly off the level set, benchmark step size
    s = (1.35, 0.1, 0.0, -0.05, 0.62, 0.0)
    v0 = pk.lyapunov(params, s)
    s1 = euler_step(lambda x: pk.modified_field(params, x), s, 0.03)
    assert pk.lyapunov(params, s1) < v0


def test_reference_flow_conserves_integrals(pk_runs):
    assert pk_runs["reference"].maxima["dE"] <= 1e-10
    assert pk_runs["reference"].maxima["dL"] <= 1e-10


def test_level_set_trajectory_is_bounded(pk_sys):
    x = pk_sys.initial_state
    rmax = vmax = 0.0
    for _ in range(steps_for(pk_sys.period, 1e-3)):
        x = rk4_step(pk_sys.field, x, 1e-3)
        rmax = max(rmax, np.linalg.norm(x[:3]))
        vmax = max(vmax, np.linalg.norm(x[3:]))
    assert rmax <= 2.0 and vmax <= 3.0


def quadratic_root_oracle(mu, delta, l0_sq):
    # |L0|^2 = mu r + 3 delta / r  <=>  mu r^2 - |L0|^2 r + 3 delta = 0
    disc = l0_sq**2 - 12.0 * mu * delta
    if disc < 0.0:
        return []
    return sorted([(l0_sq - math.sqrt(disc)) / (2 * mu),
                   (l0_sq + math.sqrt(disc)) / (2 * mu)])


def test_hypothesis_benchmark_satisfied(params):
    report = pk.check_hypothesis(params)
    assert report.satisfied and not report.vacuous
    oracle = quadratic_root_oracle(1.0, 0.0025, 0.64)
    assert len(report.roots) == 2
    assert sorted(report.roots) == pytest.approx(oracle, abs=1e-9)
    # energy residuals at the two radii, via the explicit formulas
    for root, res in zip(report.roots, report.residuals):
        expected = abs(params.E0 - (-1.0 / (2 * root) + 0.0025 / (2 * root**3)))
        assert res == pytest.approx(expected, rel=1e-9)


def test_hypothesis_violated_for_circular_orbit_data():
    rc = 0.9
    p = pk.PerturbedKeplerParams(mu=1.0, delta=0.0, k1=1.0, k2=1.0,
                                 E0=-1.0 / (2 * rc), L0=(0.0, 0.0, math.sqrt(rc)))
    report = pk.check_hypothesis(p)
    assert not report.satisfied
    assert any(abs(r - rc) <= 1e-9 for r in report.roots)


def test_hypothesis_vacuous_when_no_roots(params):
    p = dataclasses.replace(params, k1=1.0, k2=1.0, E0=-0.5, L0=(0.0, 0.0, 10.0))
    report = pk.check_hypothesis(p, r_min=0.1, r_max=1.0)
    assert report.satisfied and report.vacuous
    assert report.bracket == (0.1, 1.0)


def test_hypothesis_bracket_validation(params):
    with pytest.raises(ValueError):
        pk.check_hypothesis(params, r_min=1.0, r_max=0.5)
    with pytest.raises(ValueError):
        pk.check_hypothesis(params, n_grid=1)


def test_root_finding_against_dense_scan(params):
    # brute-force sign-change scan on a million-point log grid
    def dense_roots(p):
        l0_sq = float(np.dot(p.L0, p.L0))
        grid = np.geomspace(*pk.DEFAULT_BRACKET, 1_000_000)
        vals = grid**3 * pk.u_prime(p, grid) - l0_sq
        hits = []
        for i in np.nonzero(np.signbit(vals[:-1]) != np.signbit(vals[1:]))[0]:
            hits.append(0.5 * (grid[i] + grid[i + 1]))
        return hits

    rc = 0.9
    circular = pk.PerturbedKeplerParams(
        mu=1.0, delta=0.0, k1=1.0, k2=1.0, E0=-1.0 / (2 * rc), L0=(0.0, 0.0, math.sqrt(rc)))
    for p in (params, circular):
        scan = sorted(dense_roots(p))
        found = sorted(pk.check_hypothesis(p).roots)
        assert len(scan) == len(found)
        for refined, coarse in zip(found, scan):
            # dense-grid midpoints are accurate to half a (log) grid cell
            assert abs(refined - coarse) <= coarse * 2e-5 + 1e-12
