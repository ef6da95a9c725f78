import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (drift_by_name, perihelion_passages, precession_rate, run_with_metrics,
                      state_with_lyapunov)
from lyapint.diagnostics import (
    check_rank_condition,
    gradient_agreement_report,
    orthogonality_report,
    singular_values,
)
from lyapint.errors import DomainError
from lyapint.feedback import generic_gradient
from lyapint.kepler import state_at_eccentric_anomaly
from lyapint.systems import SYSTEM_NAMES, make_system


def test_drift_metrics_zero_at_start(rigid_sys):
    metrics = drift_by_name(rigid_sys, rigid_sys.initial_state)
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
    assert set(system.drift_metrics(system.initial_state)) == {0.0}
    for block in system.sample_blocks(np.random.default_rng(11), 600, 200):
        for s in block.tolist():
            x = tuple(s)
            assert drift_by_name(system, x)["V"].hex() == system.lyapunov(x).hex()


@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_field_and_drift_is_the_field_and_the_drift_row_bit_for_bit(name):
    # one evaluation of the integrals gives both; a run's feedback step relies on it
    system = make_system(name)
    for s in next(system.sample_blocks(np.random.default_rng(12), 300, 300)).tolist():
        x = tuple(s)
        field, row = system.field_and_drift(x)
        assert [v.hex() for v in field] == [v.hex() for v in system.modified_field(x)]
        assert [v.hex() for v in row] == [v.hex() for v in system.drift_metrics(x)]


def test_field_and_drift_raises_where_the_drift_does():
    # |v|^2 overflows: the energy is not finite, so the drift row raises,
    # while the field alone goes on with inf
    system = make_system("perturbed_kepler")
    x = (1.0, 0.0, 0.0, 0.0, 1e155, 0.0)
    assert not all(map(math.isfinite, system.modified_field(x)))
    with pytest.raises(DomainError, match="potential evaluation not finite"):
        system.drift_metrics(x)
    with pytest.raises(DomainError, match="potential evaluation not finite"):
        system.field_and_drift(x)


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


def test_attractor_plateaus_shrink_with_step(rigid_plateaus):
    values = rigid_plateaus.euler
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[-1] <= values[0] / 4.0


def test_attractor_rk4_plateau_below_euler(rigid_plateaus):
    assert rigid_plateaus.rk4 <= rigid_plateaus.euler[2]


@pytest.mark.xfail(
    reason="the h-linear Euler attractor sits at V ~ 4e-9 for h = 1e-4 with "
           "the benchmark gains; the 1e-10 floor is below it",
    strict=False)
def test_attractor_zero_start_stays_at_truncation_floor(rigid_feedback_50):
    assert rigid_feedback_50.v_window_max[20.0] <= 1e-10


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

    def growing(u):
        if isinstance(u[0], float):
            drawn.append(float(len(drawn) + 1))
            return (1.0, 0.0, 0.0, 0.0, drawn[-1], 0.0)
        n = len(u[0])
        k = np.arange(len(drawn) + 1, len(drawn) + n + 1, dtype=float)
        drawn.extend(k.tolist())
        one, zero = np.ones(n), np.zeros(n)
        return (one, zero, zero, zero, k, zero)

    rule = kepler_sys.sampler._replace(state=growing)
    probe = dataclasses.replace(kepler_sys, sampler=rule, gradient=kepler_sys.field)
    report = orthogonality_report(probe, n_samples=n_samples, seed=6)
    # a refill's surplus is evaluated too: the blocks hold the first n_samples
    assert drawn[:n_samples] == list(range(1, n_samples + 1))
    drawn.clear()
    expected = per_state_worst_residual(probe, n_samples, 6)
    assert abs(report.max_scaled_residual - expected) <= 1e-15
    assert report.max_scaled_residual > 0.5


def with_a_nan_gradient(system, at):
    """system, its gradient NaN in every component at the sampled state
    whose first component is ``at``, and only there."""
    gradient = system.gradient

    def poisoned(x):
        g = gradient(x)
        if isinstance(x[0], float):
            return tuple(math.nan for _ in g) if x[0] == at else g
        hit = x[0] == at
        return tuple(np.where(hit, math.nan, gi) for gi in g)

    return dataclasses.replace(system, gradient=poisoned)


@pytest.mark.parametrize("report", [orthogonality_report, gradient_agreement_report])
def test_a_nan_residual_fails_the_report(kepler_sys, report):
    # one NaN among the states of the second 1,000-state block: Python's
    # max(worst, nan) would keep worst, and the report would pass
    states = np.concatenate(list(kepler_sys.sample_blocks(np.random.default_rng(7), 2500, 1000)))
    probe = with_a_nan_gradient(kepler_sys, float(states[1234, 0]))
    clean = report(kepler_sys, n_samples=2500, seed=7)
    assert clean.passed
    poisoned = report(probe, n_samples=2500, seed=7)
    assert math.isnan(poisoned.max_scaled_residual)
    assert not poisoned.passed


@pytest.mark.parametrize("block", [7, 777])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_sample_blocks_draw_the_states_of_sample_state(name, seed, block):
    # Both block sizes leave a partial last block of 10,000 states. Each of
    # these runs rejects some tries (the radius and determinant tests), so
    # accepted states carry over from one refill to the next block; a 7-try
    # refill that rejects one needs a second refill for its block.
    system = make_system(name)
    blocks = list(system.sample_blocks(np.random.default_rng(seed), 10_000, block))
    assert [len(b) for b in blocks] == [block] * (10_000 // block) + [10_000 % block]
    rng = np.random.default_rng(seed)
    single = np.array([system.sample_state(rng) for _ in range(10_000)])
    assert np.concatenate(blocks).tobytes() == single.tobytes()


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(SYSTEM_NAMES), seed=st.integers(0, 2**32 - 1),
       n=st.integers(1, 1500), block=st.integers(1, 700))
def test_sample_blocks_are_n_calls_of_sample_state(name, seed, n, block):
    system = make_system(name)
    blocks = list(system.sample_blocks(np.random.default_rng(seed), n, block))
    assert [len(b) for b in blocks] == [block] * (n // block) + ([n % block] if n % block else [])
    assert all(b.flags.c_contiguous for b in blocks)
    rng = np.random.default_rng(seed)
    single = np.array([system.sample_state(rng) for _ in range(n)])
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
        assert report.max_scaled_residual == per_state_worst_gradient_difference(
            system, n_samples, 5)


def test_gradient_agreement_report_passes(rigid_sys, kepler_sys, pk_sys):
    for system in (rigid_sys, kepler_sys, pk_sys):
        report = gradient_agreement_report(system, n_samples=300, seed=0)
        assert report.passed, report


# -- the test suite's helpers in conftest ------------------------------------

def test_perihelion_passages_on_synthetic_ellipse(kepler_sys):
    # sample the closed benchmark orbit over three periods; passages must
    # come out near multiples of the period with a fixed apse angle
    run = run_with_metrics(kepler_sys, "rk4", 0.01, 3.2 * kepler_sys.period, state_stride=10)
    t_peri, angles = perihelion_passages(run.times, run.states)
    assert len(t_peri) == 3
    for i, t in enumerate(t_peri):
        assert t == pytest.approx((i + 1) * kepler_sys.period, abs=0.05)
    rate = precession_rate(run.times, run.states)
    assert abs(rate) <= 1e-3



def test_state_with_lyapunov_hits_target(rigid_sys, kepler_sys):
    for system, target in ((rigid_sys, 1.0), (kepler_sys, 0.02)):
        x = state_with_lyapunov(system, target)
        assert system.lyapunov(x) == pytest.approx(target, rel=1e-8)
    assert np.array_equal(state_with_lyapunov(rigid_sys, 0.0),
                          rigid_sys.initial_state)
