import dataclasses
import decimal
import math
from decimal import Decimal

import numpy as np
import pytest

from conftest import (contract_models, drift_by_name, perihelion_passages, precession_rate,
                      random_rotation, run_with_metrics, sampled)
from lyapint import kepler, perturbed_kepler as pk
from lyapint.errors import DomainError
from lyapint.integrators import euler_step
from lyapint.systems import make_system


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
    (1.0, (1.0, 0.0, 0.0, 0.0, 1.0, 0.0)),  # circular: the band is one radius
    (3.0, (0.1, 0.0, 0.0, 0.0, math.sqrt(3.0 * 1.9 / 0.1), 0.0)),  # e = 0.9, at perihelion
    (0.7, (0.0, -2.0, 0.5, 0.05, 0.0, 0.1)),
])
def test_period_at_zero_delta_is_the_kepler_period(mu, s0):
    # at delta = 0 the quadrature over the band is Kepler's 2 pi sqrt(a^3 / mu),
    # which kepler computes from (L0, A0)
    period = make_system("perturbed_kepler", initial_state=s0, mu=mu, delta=0.0).period
    _, _, expected = kepler.orbit_geometry(kepler.setup(s0, (4.0, 2.0), mu=mu)[0])
    assert period == pytest.approx(expected, rel=1e-12)


def test_zero_delta_reduces_to_kepler(start, pk_sys):
    pp, _ = pk.setup(start, (2.0, 3.0), mu=1.0, delta=0.0)
    kp, _ = kepler.setup(start, (4.0, 2.0), mu=1.0)
    for s in map(tuple, sampled(pk_sys, 100, 40).tolist()):
        assert np.allclose(pk.field(pp, s), kepler.field(kp, s),
                           rtol=1e-14, atol=1e-14)
        assert np.allclose(pk.accel(pp, s[:3]), kepler.accel(kp, s[:3]),
                           rtol=1e-14, atol=1e-14)
        E, *L = pk.invariant_components(pp, s)
        *Lk, _, _, _, Ek = kepler.invariant_components(kp, s)
        assert E == pytest.approx(Ek, rel=1e-14, abs=1e-14)
        assert L == Lk


def test_field_benchmark_value(params):
    s = (0.4, 0.0, 0.0, 0.0, 2.0, 0.0)
    out = pk.field(params, s)
    # U'(0.4) = 1/0.16 + 3 * 0.0025 / 0.4^4 = 6.54296875
    assert np.array_equal(out[:3], s[3:])
    assert out[3] == pytest.approx(-6.54296875, rel=1e-12)
    assert out[4] == 0.0 and out[5] == 0.0


def test_force_is_central(params, pk_sys):
    for s in map(tuple, sampled(pk_sys, 200, 41).tolist()):
        a = np.array(pk.field(params, s)[3:])
        torque = np.cross(s[:3], a)
        assert np.linalg.norm(torque) <= 1e-13 * (1.0 + np.linalg.norm(a))


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
    rng = np.random.default_rng(42)
    s = np.array([0.7, -0.3, 0.4, 0.2, 1.1, -0.5])
    E_ref, L_ref = invariants(params, tuple(s.tolist()))
    for _ in range(20):
        Q = random_rotation(rng)
        rotated = np.concatenate((Q @ s[:3], Q @ s[3:]))
        E, L = invariants(params, tuple(rotated.tolist()))
        assert E == pytest.approx(E_ref, rel=1e-13)
        assert np.allclose(L, Q @ L_ref, atol=1e-13)


def numpy_invariants(p, s):
    """E = 0.5 v.v + U(|x|) and L = x cross v, evaluated with numpy."""
    s = np.array(s)
    x, v = s[:3], s[3:]
    return 0.5 * float(v @ v) + pk.u(p, float(np.linalg.norm(x))), np.cross(x, v)


@pytest.mark.parametrize("model", contract_models("perturbed_kepler"))
def test_eval_matches_numpy_energy_and_angular_momentum(model):
    p, evaluate = model.params, model.integral_map.eval
    for s in sampled(model, 1000, 44).tolist():
        E, L = numpy_invariants(p, s)
        got = np.array(evaluate(s))
        assert got.shape == (4,)
        assert abs(got[0] - E) <= 1e-14 * (1.0 + abs(E))
        assert np.abs(got[1:] - L).max() <= 1e-15 * (1.0 + np.linalg.norm(L))


def test_energy_guard_rejects_a_non_finite_energy(params, pk_sys):
    # |v|^2 overflows, so the energy is inf
    state = sampled(pk_sys, 3, 47)[2]
    state[3] = 1e200
    with pytest.raises(DomainError, match="not finite"):
        pk.invariant_components(params, tuple(state.tolist()))


@pytest.mark.parametrize("model", contract_models("perturbed_kepler"))
def test_drift_metrics_match_numpy_invariants(model):
    p = model.params
    E0, L0 = numpy_invariants(p, model.initial_state)
    for s in sampled(model, 1000, 45).tolist():
        E, L = numpy_invariants(p, s)
        expected = {
            "dE": abs(E - E0),
            "dL": np.linalg.norm(L - L0),
            "V": 0.5 * p.k1 * (E - p.E0) ** 2 + 0.5 * p.k2 * np.sum((L - p.L0) ** 2),
        }
        got = drift_by_name(model, s)
        assert set(got) == set(expected)
        for key, value in expected.items():
            assert abs(got[key] - value) <= 1e-13 * (1.0 + abs(value)), key


def test_gradient_vanishes_on_level_set(params, start, pk_runs):
    # states along the high-accuracy reference trajectory stay on the level set
    for s in pk_runs["reference"].states[:: len(pk_runs["reference"].states) // 8]:
        g = pk.lyapunov_gradient(params, tuple(s.tolist()))
        assert np.linalg.norm(g) <= 1e-10


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
    states = run_with_metrics(pk_sys, "rk4", 1e-3, pk_sys.period, state_stride=1).states
    assert np.linalg.norm(states[:, :3], axis=1).max() <= 2.0
    assert np.linalg.norm(states[:, 3:], axis=1).max() <= 3.0


def quadratic_root_oracle(mu, delta, l0_sq):
    # |L0|^2 = mu r + 3 delta / r  <=>  mu r^2 - |L0|^2 r + 3 delta = 0
    disc = l0_sq**2 - 12.0 * mu * delta
    if disc < 0.0:
        return []
    return sorted([(l0_sq - math.sqrt(disc)) / (2 * mu),
                   (l0_sq + math.sqrt(disc)) / (2 * mu)])


def test_hypothesis_benchmark_satisfied(params):
    report = pk.check_hypothesis(params)
    assert report.satisfied
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
    # |L0|^4 = 0.0625 < 12 mu delta = 0.6: the quadratic has no real root
    p = dataclasses.replace(params, L0=(0.0, 0.0, 0.5), delta=0.05)
    report = pk.check_hypothesis(p)
    assert report.satisfied and report.roots == () and report.residuals == ()
    assert report.bracket == pk.DEFAULT_BRACKET == (1e-3, 1e3)


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


def radial_gap(p, r):
    """2 r^2 (E0 - U(r)) - |L0|^2, r^2 v_r^2 on the level set."""
    return 2.0 * r * r * (p.E0 - pk.u(p, r)) - float(np.dot(p.L0, p.L0))


@pytest.mark.parametrize("mu, delta, s0", [
    (1.0, 0.0025, None),
    (1.5, 0.01, None),
    (1.0, 0.0, (0.0, -2.0, 0.5, 0.05, 0.0, 0.1)),
    (0.8, 0.02, (0.3, 0.9, -0.4, -0.7, 0.2, 0.5)),
])
def test_band_ends_are_the_turning_points_of_the_cubic(mu, delta, s0):
    p, s0 = pk.setup(s0, pk.BENCHMARK_GAINS, mu=mu, delta=delta)
    r0 = float(np.linalg.norm(s0[:3]))
    r_in, r_out = pk.radial_band(p, r0)
    assert r_in <= r0 * (1.0 + 1e-15) and r0 <= r_out * (1.0 + 1e-15)
    # r g(r) = 2 E0 r^3 + 2 mu r^2 - |L0|^2 r + 2 delta; numpy's eigenvalue roots are the oracle
    roots = np.roots((2.0 * p.E0, 2.0 * mu, -float(np.dot(p.L0, p.L0)), 2.0 * delta))
    real = sorted(r.real for r in roots if abs(r.imag) <= 1e-12 and r.real > 0.0)
    assert real[-2:] == pytest.approx([r_in, r_out], rel=1e-12)
    for r in (r_in, r_out):
        assert abs(radial_gap(p, r)) <= 1e-13 * float(np.dot(p.L0, p.L0))


def test_band_ends_are_the_upper_roots_of_the_cubic_across_a_seeded_family():
    # bound starts at 0.3 to 0.9 of the Kepler escape speed, in random
    # directions. Faster, r_out / r_in passes 1e3, and the slope of g at
    # r_out, about 2 mu, leaves |g| above 1e-13 |L0|^2 at a root right to
    # the last bit
    rng = np.random.default_rng(51)
    checked = 0
    for _ in range(300):
        mu, r, speed = rng.uniform(0.3, 3.0), rng.uniform(0.05, 3.0), rng.uniform(0.3, 0.9)
        delta = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 0.05)
        x, v = rng.normal(size=3), rng.normal(size=3)
        x *= r / np.linalg.norm(x)
        v *= speed * math.sqrt(2.0 * mu / r) / np.linalg.norm(v)
        p, s0 = pk.setup((*x.tolist(), *v.tolist()), pk.BENCHMARK_GAINS, mu=mu, delta=delta)
        band = pk.radial_band(p, pk.norm(s0[:3]))
        if band is None:  # the motion reaches the centre
            continue
        l0_sq = float(np.dot(p.L0, p.L0))
        roots = sorted(np.roots((2.0 * p.E0, 2.0 * mu, -l0_sq, 2.0 * delta)).real)
        if roots[-1] - roots[-2] <= 1e-6 * roots[-1]:
            continue
        checked += 1
        assert list(band) == pytest.approx(roots[-2:], rel=1e-12)
        for end in band:
            assert abs(radial_gap(p, end)) <= 1e-13 * l0_sq
    assert checked >= 200


@pytest.mark.parametrize("mu, delta, r", [(1.0, 0.0025, 0.4), (1.0, 0.0025, 1.3),
                                          (1.5, 0.01, 0.7)])
def test_period_of_a_circular_orbit_is_the_epicyclic_period(mu, delta, r):
    # the band is a double root of the cubic, and the radial period that of a
    # small oscillation about the circle, 2 pi / kappa with
    # kappa^2 = U''(r) + 3 U'(r) / r = mu / r^3 - 3 delta / r^5
    v = math.sqrt(mu / r + 3.0 * delta / r**3)
    p, s0 = pk.setup((r, 0.0, 0.0, 0.0, v, 0.0), pk.BENCHMARK_GAINS, mu=mu, delta=delta)
    kappa = math.sqrt(mu / r**3 - 3.0 * delta / r**5)
    assert pk.period(p, s0) == pytest.approx(2.0 * math.pi / kappa, rel=1e-13)


@pytest.mark.parametrize("mu, delta, s0", [
    (1.0, 0.0025, None),
    (1.5, 0.01, None),
    (0.8, 0.02, (0.3, 0.9, -0.4, -0.7, 0.2, 0.5)),
])
def test_level_set_states_are_on_the_level_set(mu, delta, s0):
    p, s0 = pk.setup(s0, pk.BENCHMARK_GAINS, mu=mu, delta=delta)
    r_in, r_out = pk.radial_band(p, float(np.linalg.norm(s0[:3])))
    states = pk.level_set_states(p, s0)
    assert len(states) == 7
    radii = [float(np.linalg.norm(s[:3])) for s in states]
    assert radii == sorted(radii)
    assert radii[0] == pytest.approx(r_in, rel=1e-15)
    assert radii[-1] == pytest.approx(r_out, rel=1e-15)
    for s in states:
        E, *L = pk.invariant_components(p, s)
        assert E == pytest.approx(p.E0, rel=1e-12)
        assert np.linalg.norm(np.subtract(L, p.L0)) <= 1e-12 * np.linalg.norm(p.L0)
    # v_r = x . v / |x| vanishes at both turning points, and only there
    v_r = [float(np.dot(s[:3], s[3:])) / r for s, r in zip(states, radii)]
    speed = max(float(np.linalg.norm(s[3:])) for s in states)
    assert abs(v_r[0]) <= 1e-15 * speed and abs(v_r[-1]) <= 1e-15 * speed
    assert min(v_r[1:-1]) > 1e-3 * speed


def test_check_hypothesis_roots_are_those_of_the_quadratic(params):
    # the closed-form roots bit for bit, the quadratic oracle's at the params'
    # |L0|^2 to its cancellation, and within 2 ulps of the roots to 40 digits
    roots = pk.check_hypothesis(params).roots
    assert roots == (0.011941563985012735, 0.6280584360149875)
    l0_sq = pk.dot(params.L0, params.L0)
    assert list(roots) == pytest.approx(quadratic_root_oracle(1.0, 0.0025, l0_sq), rel=1e-14)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        root_disc = (Decimal(l0_sq) ** 2 - 12 * Decimal(0.0025)).sqrt()
        exact = ((Decimal(l0_sq) - root_disc) / 2, (Decimal(l0_sq) + root_disc) / 2)
        assert all(abs(Decimal(r) - e) <= 2 * Decimal(math.ulp(r)) for r, e in zip(roots, exact))


def rk4_radial_return_time(system, h, t_guess):
    """The RK4 time, at step h, in [0.75, 1.25] t_guess at which the radius
    comes closest to its start value, from a start at a turning point."""
    run = run_with_metrics(system, "rk4", h, 1.25 * t_guess, state_stride=1)
    r = np.linalg.norm(run.states[:, :3], axis=1)
    return run.times[np.argmin(np.where(run.times >= 0.75 * t_guess, abs(r - r[0]), np.inf))]


@pytest.mark.parametrize("constants, expected", [
    ({}, 5.612950), ({"mu": 1.5, "delta": 0.01}, 1.271034), ({"mu": 2.5, "delta": 0.0}, 0.633857)])
def test_period_by_quadrature_is_the_rk4_return_time(constants, expected):
    system = make_system("perturbed_kepler", **constants)  # starts at perihelion
    assert system.period == pytest.approx(expected, abs=1e-6)
    h = 1e-3
    assert abs(rk4_radial_return_time(system, h, system.period) - system.period) <= 2.0 * h


def test_period_is_inf_without_a_band():
    # unbound: E0 > 0
    assert make_system("perturbed_kepler", initial_state=(1.0, 0.0, 0.0, 0.0, 1.5, 0.0)).period \
        == math.inf
    # inside the repulsive core's band, which reaches r = 0: the orbit falls into the centre
    falling = (0.05, 0.0, 0.0, 0.0, 0.5, 0.0)
    p, s0 = pk.setup(falling, pk.BENCHMARK_GAINS)
    assert pk.radial_band(p, 0.05) is None
    assert make_system("perturbed_kepler", initial_state=falling).period == math.inf
    with pytest.raises(ValueError, match="no band"):
        pk.level_set_states(p, s0)


def band_quadrature(p, s0, weight, nodes=20_000):
    """2 * the integral of weight(r) dr / sqrt(2 (E0 - U(r)) - |L0|^2 / r^2)
    across the band of s0's radius, with r = c - d cos(theta) on midpoint
    nodes in theta: the integrand as written, an oracle for the module's
    factored cubic."""
    r_in, r_out = pk.radial_band(p, float(np.linalg.norm(s0[:3])))
    c, d = 0.5 * (r_in + r_out), 0.5 * (r_out - r_in)
    theta = (np.arange(nodes) + 0.5) * np.pi / nodes
    r = c - d * np.cos(theta)
    v_r_sq = 2.0 * (p.E0 - pk.u(p, r)) - float(np.dot(p.L0, p.L0)) / r**2
    return 2.0 * np.pi / nodes * float(np.sum(weight(r) * d * np.sin(theta) / np.sqrt(v_r_sq)))


@pytest.mark.parametrize("mu, delta, s0", [
    (1.0, 0.0025, None),
    (1.5, 0.01, None),
    (0.8, 0.02, (0.3, 0.9, -0.4, -0.7, 0.2, 0.5)),
])
def test_period_is_the_quadrature_of_the_radial_speed(mu, delta, s0):
    p, s0 = pk.setup(s0, pk.BENCHMARK_GAINS, mu=mu, delta=delta)
    assert pk.period(p, s0) == pytest.approx(band_quadrature(p, s0, np.ones_like), rel=1e-9)


def narrow_gap_start(r0):
    """At mu = 1, delta = 0.05: a start at radius r0 with |L0|^2 = 0.85 and
    E0 = -0.41, 0.01 below the energy of the unstable circular orbit at
    r = 0.25; the forbidden gap between the core root 0.2363 of r g(r) and
    the band's inner end 0.2665 is 1.128 wide in ratio."""
    v_t = math.sqrt(0.85) / r0
    v_r = math.sqrt(2.0 * (-0.41 + 1.0 / r0 + 0.05 / r0**3) - v_t * v_t)
    return pk.setup((r0, 0.0, 0.0, v_r, v_t, 0.0), pk.BENCHMARK_GAINS, mu=1.0, delta=0.05)


@pytest.mark.parametrize("r0", [0.28, 1.0])
def test_a_gap_narrower_than_a_step_of_2_to_the_quarter_is_not_stepped_over(r0):
    # from r0 = 0.28, radii 2^(1/4) apart step from 0.28 to 0.2355, over the gap
    p, s0 = narrow_gap_start(r0)
    assert (p.E0, float(np.dot(p.L0, p.L0))) == pytest.approx((-0.41, 0.85), rel=1e-14)
    r_in, r_out = pk.radial_band(p, r0)
    assert (r_in, r_out) == pytest.approx((0.2665240162460508, 1.9361782003479955), rel=1e-12)
    period = pk.period(p, s0)
    assert math.isfinite(period)
    assert period == pytest.approx(band_quadrature(p, s0, np.ones_like), rel=1e-9)


def test_apse_advance_is_the_reference_precession(pk_sys, pk_runs):
    # the apse advance per radial period, 2 * the integral of |L0| / r^2 dr / |v_r|
    # minus 2 pi (Landau and Lifshitz, section 15). Measured: 0.120946219
    # by quadrature, 0.120946225 rad from the RK4 reference, 5.8e-9 rad apart;
    # the bound leaves room for the perihelion fit's sampling error
    l0 = float(np.linalg.norm(pk_sys.params.L0))
    advance = band_quadrature(pk_sys.params, pk_sys.initial_state,
                              lambda r: l0 / r**2) - 2.0 * np.pi
    reference = pk_runs["reference"]
    assert abs(advance - precession_rate(reference.times, reference.states)) <= 1e-6
    # and the period is the mean time between the reference's perihelion
    # passages (measured 4.5e-10 apart)
    t_peri, _ = perihelion_passages(reference.times, reference.states)
    assert (t_peri[-1] - t_peri[0]) / (len(t_peri) - 1) == pytest.approx(pk_sys.period, abs=1e-6)
