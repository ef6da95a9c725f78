import dataclasses
import math

import numpy as np
import pytest

from conftest import perihelion_passages, precession_rate
from lyapint import systems
from lyapint.diagnostics import (
    attractor_step_study,
    check_rank_condition,
    gradient_agreement_report,
    orthogonality_report,
    singular_values,
    state_with_lyapunov,
)
from lyapint.errors import BasinViolationError, DomainError, IntegrationError
from lyapint.feedback import generic_gradient
from lyapint.integrators import euler_step
from lyapint.kepler import state_at_eccentric_anomaly
from lyapint.systems import SYSTEM_NAMES, make_system


def test_drift_metrics_zero_at_start(rigid_sys):
    metrics = rigid_sys.drift_metrics(rigid_sys.initial_state)
    assert metrics["dE"] == 0.0
    assert metrics["dPi"] == 0.0
    assert metrics["V"] == 0.0


def test_drift_metrics_reject_a_state_off_the_domain(kepler_sys):
    with pytest.raises(DomainError):
        kepler_sys.drift_metrics((0.0,) * 6)


@pytest.mark.parametrize("name, start", [
    ("rigid_body", None),
    ("kepler", None),
    ("kepler", (1.0, 0.2, -0.1, 0.1, 1.1, 0.3)),
    ("perturbed_kepler", None),
    ("perturbed_kepler", (0.9, -0.3, 0.2, 0.2, 1.0, -0.1)),
])
def test_drift_v_is_the_lyapunov_value_and_the_start_drifts_nothing(name, start):
    # V is stated once per system, so the drift column is lyapunov bit for bit;
    # the targets are the start's integrals, so every column is 0.0 there
    system = make_system(name, initial_state=start)
    assert set(system.drift_metrics(system.initial_state).values()) == {0.0}
    for block in system.sample_blocks(np.random.default_rng(11), 600, 200):
        for s in block.tolist():
            x = tuple(s)
            assert system.drift_metrics(x)["V"].hex() == system.lyapunov(x).hex()


def test_plain_euler_energy_drift_grows(rigid_plain_euler_50):
    series = rigid_plain_euler_50.series
    first_nonzero = next(v for v in series if v > 0.0)
    assert series[-1] >= 100.0 * first_nonzero
    # trend over five blocks: strictly increasing block means
    blocks = np.array_split(series, 5)
    means = [float(np.mean(b)) for b in blocks]
    assert all(a < b for a, b in zip(means, means[1:]))


def test_singular_values_match_numpy_oracle():
    rng = np.random.default_rng(50)
    shapes = [(6, 6), (4, 6), (13, 12), (3, 5)]
    for shape in shapes:
        for _ in range(10):
            a = rng.standard_normal(shape)
            mine = singular_values(a)
            ref = np.linalg.svd(a, compute_uv=False)
            assert np.allclose(mine, ref, rtol=1e-12, atol=1e-12)
    # rank-deficient case
    a = np.outer(rng.standard_normal(5), rng.standard_normal(4))
    mine = singular_values(a)
    ref = np.linalg.svd(a, compute_uv=False)
    assert np.allclose(mine, ref, rtol=1e-12, atol=1e-12)


def test_rank_condition_perturbed_kepler_full_rank(pk_sys, pk_runs):
    states = pk_runs["reference"].states.tolist()
    samples = [states[i] for i in range(0, len(states), max(1, len(states) // 6))]
    report = check_rank_condition(pk_sys.integral_map, samples)
    assert report.passed
    assert all(len(spec) == 4 for spec in report.spectra)


def test_rank_condition_kepler_reports_flow_direction_null(kepler_sys):
    # (L, A) stacks six values, but their joint level set is the whole orbit,
    # so the sixth singular value vanishes while the first five stay away
    # from zero.
    samples = [state_at_eccentric_anomaly(kepler_sys.params, psi)
               for psi in np.linspace(0.0, 2 * math.pi, 7)[:-1]]
    report = check_rank_condition(kepler_sys.integral_map, samples)
    assert not report.passed
    assert report.min_singular_value <= 1e-8
    assert min(spec[4] for spec in report.spectra) > 1e-8
    # oracle agreement at the first sample
    ref = np.linalg.svd(np.asarray(kepler_sys.integral_map.jacobian(samples[0]), dtype=float),
                        compute_uv=False)
    assert np.allclose(report.spectra[0], ref, rtol=1e-10, atol=1e-12)


def test_rank_condition_permutation_invariant(pk_sys, pk_runs):
    states = pk_runs["reference"].states.tolist()
    samples = [states[i] for i in range(0, len(states), max(1, len(states) // 5))]
    a = check_rank_condition(pk_sys.integral_map, samples)
    b = check_rank_condition(pk_sys.integral_map, list(reversed(samples)))
    assert a.min_singular_value == b.min_singular_value
    assert a.passed == b.passed


def test_state_with_lyapunov_hits_target(rigid_sys, kepler_sys):
    for system, target in ((rigid_sys, 1.0), (kepler_sys, 0.02)):
        x = state_with_lyapunov(system, target)
        assert system.lyapunov(x) == pytest.approx(target, rel=1e-8)
    assert np.array_equal(state_with_lyapunov(rigid_sys, 0.0),
                          rigid_sys.initial_state)


def test_attractor_plateaus_shrink_with_step(rigid_plateaus):
    values = rigid_plateaus.euler.plateau_values
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[-1] <= values[0] / 4.0


def test_attractor_rk4_plateau_below_euler(rigid_plateaus):
    assert rigid_plateaus.rk4.plateau_values[0] <= rigid_plateaus.euler.plateau_values[2]


@pytest.mark.xfail(
    reason="the h-linear Euler attractor sits at V ~ 4e-9 for h = 1e-4 with "
           "the benchmark gains; the 1e-10 floor is below it",
    strict=False)
def test_attractor_zero_start_stays_at_truncation_floor(rigid_feedback_50):
    assert rigid_feedback_50.v_window_max[20.0] <= 1e-10


def test_attractor_study_validation(rigid_sys):
    with pytest.raises(ValueError):
        attractor_step_study(rigid_sys, euler_step, (1e-4, 2e-4), 1.0, 1.0)
    with pytest.raises(ValueError):
        attractor_step_study(rigid_sys, euler_step, (2e-4, 1e-4), 100.0, 1.0)


def test_attractor_study_reports_basin_escape(rigid_sys):
    # far beyond the Euler stability limit the trajectory leaves the basin
    with pytest.raises(BasinViolationError) as info:
        attractor_step_study(rigid_sys, euler_step, (0.05,), 1.0, 5.0)
    assert info.value.h == 0.05
    assert info.value.value > rigid_sys.gain_bound


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_attractor_study_numbers_a_float_overflow(pk_sys):
    # perturbed Kepler has no basin bound; far beyond its stability limit the
    # float kernels overflow, which must surface with the failing step
    with pytest.raises(IntegrationError) as info:
        attractor_step_study(pk_sys, euler_step, (0.3,), 0.0, 300.0)
    assert info.value.step is not None and info.value.step >= 1


def test_orthogonality_report_passes(rigid_sys, kepler_sys, pk_sys):
    for system in (rigid_sys, kepler_sys, pk_sys):
        report = orthogonality_report(system, n_samples=1500, seed=0)
        assert report.passed, report



def per_state_worst_residual(system, n_samples, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        s = system.sample_state(rng)
        g = np.array(system.gradient(s))
        f = np.array(system.field(s))
        worst = max(worst, abs(float(g @ f)) / (1.0 + np.linalg.norm(g) * np.linalg.norm(f)))
    return worst


@pytest.mark.parametrize("n_samples", [999, 2500])  # one short block; a partial last block
def test_orthogonality_report_matches_a_per_state_loop(rigid_sys, kepler_sys, pk_sys, n_samples):
    for system in (rigid_sys, kepler_sys, pk_sys):
        report = orthogonality_report(system, n_samples=n_samples, seed=5)
        assert report.n_samples == n_samples
        assert abs(report.max_scaled_residual
                   - per_state_worst_residual(system, n_samples, 5)) <= 1e-15


@pytest.mark.parametrize("n_samples", [999, 2500])
def test_orthogonality_report_evaluates_every_sample(kepler_sys, n_samples):
    # gradient = field makes the residual |X|^2 / (1 + |X|^2); the k-th state
    # drawn, x = (1, 0, 0) and v = (0, k, 0), has |X|^2 = k^2 + 1, so the last
    # state has the largest residual, some 1e-10 above the one before it
    drawn = []

    def growing(draw):
        drawn.append(None)
        return (1.0, 0.0, 0.0, 0.0, float(len(drawn)), 0.0)

    probe = dataclasses.replace(kepler_sys, sampler=growing, gradient=kepler_sys.field)
    report = orthogonality_report(probe, n_samples=n_samples, seed=6)
    assert len(drawn) == n_samples
    drawn.clear()
    expected = per_state_worst_residual(probe, n_samples, 6)
    assert abs(report.max_scaled_residual - expected) <= 1e-15
    assert report.max_scaled_residual > 0.5


@pytest.mark.parametrize("refill", [7, systems.SAMPLE_REFILL])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_sample_blocks_draw_the_states_of_sample_state(monkeypatch, name, seed, refill):
    # 777-row blocks leave a partial last block of 10,000 states. A refill of
    # 7 uniforms puts a refill boundary inside two 3-value draws in seven and
    # inside every 9-value rigid-body attitude draw. Each of these runs
    # rejects 3-12 states (the radius and determinant loops), and in each at
    # least one rejected draw straddles a refill.
    monkeypatch.setattr(systems, "SAMPLE_REFILL", refill)
    system = make_system(name)
    blocks = list(system.sample_blocks(np.random.default_rng(seed), 10_000, 777))
    assert [len(b) for b in blocks] == [777] * 12 + [676]
    rng = np.random.default_rng(seed)
    single = np.array([system.sample_state(rng) for _ in range(10_000)])
    assert np.concatenate(blocks).tobytes() == single.tobytes()


def per_state_worst_gradient_difference(system, n_samples, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        s = system.sample_state(rng)
        ga = np.array(system.gradient(s))
        gg = np.array(generic_gradient(system.integral_map, system.params.K, system.params.f0, s))
        diff = math.sqrt(float((ga - gg) @ (ga - gg)))
        worst = max(worst, diff / (1.0 + math.sqrt(float(ga @ ga))))
    return worst


@pytest.mark.parametrize("n_samples", [999, 2500])  # one short block; a partial last block
def test_gradient_agreement_report_matches_a_per_state_loop(rigid_sys, kepler_sys, pk_sys,
                                                            n_samples):
    for system in (rigid_sys, kepler_sys, pk_sys):
        report = gradient_agreement_report(system, n_samples=n_samples, seed=5)
        assert report.n_samples == n_samples
        assert report.max_scaled_difference == per_state_worst_gradient_difference(
            system, n_samples, 5)


def test_gradient_agreement_report_passes(rigid_sys, kepler_sys, pk_sys):
    for system in (rigid_sys, kepler_sys, pk_sys):
        report = gradient_agreement_report(system, n_samples=300, seed=0)
        assert report.passed, report


def test_perihelion_passages_on_synthetic_ellipse(kepler_sys):
    # sample the closed benchmark orbit over three periods; passages must
    # come out near multiples of the period with a fixed apse angle
    from lyapint.integrators import rk4_step, steps_for

    x = kepler_sys.initial_state
    times = [0.0]
    states = [x]
    h = 0.01
    for k in range(1, steps_for(3.2 * kepler_sys.period, h) + 1):
        x = rk4_step(kepler_sys.field, x, h)
        if k % 10 == 0:
            times.append(k * h)
            states.append(x)
    t_peri, angles = perihelion_passages(np.array(times), np.array(states))
    assert len(t_peri) == 3
    for i, t in enumerate(t_peri):
        assert t == pytest.approx((i + 1) * kepler_sys.period, abs=0.05)
    rate = precession_rate(np.array(times), np.array(states))
    assert abs(rate) <= 1e-3
