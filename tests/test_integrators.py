import dataclasses
import math

import numpy as np
import pytest

from conftest import global_order_ratio, run_with_metrics, stacked
from lyapint import kepler
from lyapint.cli import (
    METHOD_NAMES,
    ExperimentConfig,
    make_advance,
    run_experiment,
)
from lyapint.errors import (
    ConfigError,
    DomainError,
    IntegrationError,
    ProjectionError,
    RankError,
)
from lyapint.feedback import FirstIntegralMap
from lyapint.integrators import (
    ProjectionConfig,
    _pseudo_inverse,
    euler_step,
    integrate,
    projection_step,
    rk4_step,
    rollout,
    steps_for,
    stormer_verlet_step,
)
from lyapint.systems import SYSTEM_NAMES, make_system, module


def test_euler_zero_field_keeps_state():
    x = (1.0, -2.0, 3.0)
    assert euler_step(lambda s: (0.0, 0.0, 0.0), x, 0.25) == x


def test_euler_constant_field_is_linear():
    c = (2.0, -4.0, 6.0)
    x = (0.0, 0.0, 0.0)
    assert euler_step(lambda s: c, x, 0.5) == (1.0, -2.0, 3.0)


def test_euler_exponential_one_step():
    x = (1.0,)
    assert euler_step(lambda s: s, x, 0.1)[0] == 1.1


def test_rk4_zero_field_keeps_state():
    x = (4.0, 5.0)
    assert rk4_step(lambda s: (0.0, 0.0), x, 1.0) == x


def test_rk4_exponential_truncated_series():
    h = 0.1
    expected = 1.0 + h + h**2 / 2 + h**3 / 6 + h**4 / 24
    out = rk4_step(lambda s: s, (1.0,), h)[0]
    assert out == pytest.approx(expected, abs=1e-16)


def test_rk4_exact_time_quadrature():
    # augmented state (x, t); fields x' = t and x' = t^3 integrate exactly
    for power, gain in ((1, 0.5), (3, 0.25)):
        field = lambda s, p=power: (s[1] ** p, 1.0)
        out = rk4_step(field, (0.0, 0.0), 1.0)
        assert out[0] == pytest.approx(gain, abs=1e-16)
        assert out[1] == 1.0


@pytest.mark.parametrize("scheme, stages", [(euler_step, 1), (rk4_step, 4)])
def test_a_known_first_stage_is_not_evaluated_again(kepler_sys, scheme, stages):
    # given k1 = field(x), the step is the same bits with one field call fewer
    calls = []

    def field(s):
        calls.append(s)
        return kepler_sys.modified_field(s)

    x = (1.0, 0.1, -0.2, 0.05, 1.3, 0.1)
    plain = scheme(field, x, 0.01)
    assert len(calls) == stages and calls[0] is x
    calls.clear()
    assert scheme(field, x, 0.01, kepler_sys.modified_field(x)) == plain
    assert len(calls) == stages - 1 and x not in calls


def test_stormer_verlet_free_drift():
    q = (1.0, 2.0)
    v = (0.5, -0.5)
    for variant in "AB":
        q1, v1 = stormer_verlet_step(lambda qq: (0.0, 0.0), q, v, 0.25, variant)
        assert q1 == (1.125, 1.875)
        assert v1 == v


def test_stormer_verlet_unknown_variant():
    with pytest.raises(ValueError):
        stormer_verlet_step(lambda q: (-q[0],), (1.0,), (0.0,), 0.1, "C")


def test_stormer_verlet_harmonic_energy_bounded():
    # q'' = -q: energy error oscillates at O(h^2) with no secular trend,
    # while forward Euler's energy grows without bound.
    h = 0.01
    q, v = (1.0,), (0.0,)
    first, last = 0.0, 0.0
    n = 200_000
    for k in range(n):
        q, v = stormer_verlet_step(lambda qq: (-qq[0],), q, v, h, "A")
        err = abs(0.5 * (q[0] ** 2 + v[0] ** 2) - 0.5)
        if k < n // 10:
            first = max(first, err)
        if k >= n - n // 10:
            last = max(last, err)
    assert last <= 2.0 * first
    assert last < 1e-4

    x = (1.0, 0.0)
    for _ in range(n):
        x = euler_step(lambda s: (s[1], -s[0]), x, h)
    euler_err = abs(0.5 * (x[0] ** 2 + x[1] ** 2) - 0.5)
    assert euler_err > 100.0 * last


def test_stormer_verlet_kepler_angular_momentum(kepler_sys):
    run = run_with_metrics(kepler_sys, "stormer_verlet_a", 0.005, kepler_sys.period)
    assert run.maxima["dL"] <= 1e-10


def test_order_euler():
    ratio = global_order_ratio(euler_step, lambda s: s, (1.0,), 1.0, 0.01,
                               np.array([math.e]))
    assert 1.8 <= ratio <= 2.2


def test_order_rk4():
    ratio = global_order_ratio(rk4_step, lambda s: s, (1.0,), 1.0, 0.1,
                               np.array([math.e]))
    assert 14.0 <= ratio <= 18.0


def test_order_stormer_verlet():
    def sho_error(h, variant):
        q, v = (1.0,), (0.0,)
        for _ in range(round(1.0 / h)):
            q, v = stormer_verlet_step(lambda qq: (-qq[0],), q, v, h, variant)
        return abs(q[0] - math.cos(1.0))

    for variant in "AB":
        ratio = sho_error(0.01, variant) / sho_error(0.005, variant)
        assert 3.6 <= ratio <= 4.4


def test_projection_returns_point_on_constraint_untouched(kepler_sys):
    cfg = ProjectionConfig(constraint=kepler_sys.integral_map,
                           target=kepler_sys.params.f0,
                           tol=0.005)
    x0 = kepler_sys.initial_state
    out = projection_step(cfg, lambda s: (0.0,) * 6, x0, 0.005)
    assert out == x0


def test_projection_kepler_residual_within_tolerance(kepler_sys):
    cfg = ProjectionConfig(constraint=kepler_sys.integral_map,
                           target=kepler_sys.params.f0,
                           tol=0.005)
    x = kepler_sys.initial_state
    for _ in range(2000):
        x = projection_step(cfg, kepler_sys.field, x, 0.005)
        res = np.linalg.norm(np.array(kepler_sys.integral_map.eval(x)) - cfg.target)
        assert res <= 0.005


def test_projection_rigid_residual_within_tolerance(rigid_sys):
    cfg = ProjectionConfig(constraint=rigid_sys.integral_map,
                           target=rigid_sys.params.f0,
                           tol=1e-4)
    x = rigid_sys.initial_state
    for _ in range(500):
        x = projection_step(cfg, rigid_sys.field, x, 1e-4)
        res = np.linalg.norm(np.array(rigid_sys.integral_map.eval(x)) - cfg.target)
        assert res <= 1e-4


def pk_projection_config(pk_sys):
    return ProjectionConfig(constraint=pk_sys.integral_map,
                            target=pk_sys.params.f0,
                            tol=pk_sys.projection_tol)


def test_projection_perturbed_kepler_residual_within_tolerance(pk_sys):
    cfg = pk_projection_config(pk_sys)
    rng = np.random.default_rng(47)
    x = tuple((pk_sys.initial_state + rng.uniform(-1e-3, 1e-3, 6)).tolist())
    for _ in range(200):
        x = projection_step(cfg, pk_sys.field, x, 0.03)
        res = np.linalg.norm(np.array(pk_sys.integral_map.eval(x)) - cfg.target)
        assert res <= cfg.tol


def gram_pseudo_inverse(jac):
    """Reference: J^T G^+ for G = J J^T, with G's singular values below 1e-14 relative dropped."""
    u, s, _ = np.linalg.svd(jac @ jac.T)
    inv = np.where(s > s[0] * 1e-14, 1.0 / s, 0.0)
    return jac.T @ (u * inv) @ u.T


# Numerical rank of each system's constraint Jacobian: the Kepler (L, A) has
# the flow direction in its null space; the rigid body's 13 values repeat
# the three off-diagonal entries of the symmetric R^T R - I.
JACOBIAN_RANK = {"rigid_body": 10, "kepler": 5, "perturbed_kepler": 4}


@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_pseudo_inverse_equals_the_gram_reference(name):
    system = make_system(name)
    rng = np.random.default_rng(49)
    for _ in range(200):
        x = tuple((system.initial_state + rng.uniform(-0.1, 0.1, system.dim)).tolist())
        jac = np.asarray(system.integral_map.jacobian(x), dtype=float)
        expected = gram_pseudo_inverse(jac)
        assert np.linalg.matrix_rank(expected) == JACOBIAN_RANK[name]
        got = _pseudo_inverse(jac)
        assert got.shape == (system.dim, system.integral_map.dim_values)
        assert np.abs(got - expected).max() <= 1e-12 * (1.0 + np.abs(expected).max())


def lagrange_multiplier_projection(cfg, field, x, h):
    """Reference: simplified Newton on lam for f(xt + J^T lam) = target, J frozen at xt."""

    def residual(y):
        return np.array(cfg.constraint.eval(tuple(y.tolist()))) - cfg.target

    xt = np.array(euler_step(field, tuple(x.tolist()), h))
    res = residual(xt)
    if np.linalg.norm(res) <= cfg.tol:
        return xt, 0
    jac = np.asarray(cfg.constraint.jacobian(tuple(xt.tolist())), dtype=float)
    u, s, _ = np.linalg.svd(jac @ jac.T)
    inv = np.where(s > s[0] * 1e-14, 1.0 / s, 0.0)
    lam = np.zeros(len(res))
    for iteration in range(1, cfg.max_iter + 1):
        lam -= u @ (inv * (u.T @ res))
        y = xt + jac.T @ lam
        res = residual(y)
        if np.linalg.norm(res) <= cfg.tol:
            return y, iteration
    raise AssertionError("reference projection did not converge")


@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_projection_correction_matrix_matches_lagrange_multiplier_iteration(name):
    system = make_system(name)
    h = module(name).BENCHMARK_STEP
    # perturbed Kepler's tolerance, tight enough that every system iterates
    cfg = ProjectionConfig(constraint=system.integral_map,
                           target=system.params.f0, tol=1e-8)
    evals = []

    def counted_eval(s):
        evals.append(s)
        return system.integral_map.eval(s)

    counted = ProjectionConfig(
        constraint=dataclasses.replace(system.integral_map, eval=counted_eval),
        target=cfg.target, tol=cfg.tol)
    rng = np.random.default_rng(48)
    iterations = []
    for _ in range(50):
        x = system.initial_state + rng.uniform(-1e-2, 1e-2, system.dim)
        expected, n_iter = lagrange_multiplier_projection(cfg, system.field, x, h)
        evals.clear()
        got = np.array(projection_step(counted, system.field, tuple(x.tolist()), h))
        assert np.linalg.norm(got - expected) <= 1e-12 * (1.0 + np.linalg.norm(expected))
        assert len(evals) - 1 == n_iter  # one eval per residual
        iterations.append(n_iter)
    assert min(iterations) >= 2  # every state exercises the Newton loop


@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_integral_map_on_a_tuple_equals_its_array_form_bit_for_bit(name):
    # eval and jacobian on a state's floats against the same state as a
    # block of one, columns (1,), and as row i of a 200-state block
    system = make_system(name)
    fim = system.integral_map
    rng = np.random.default_rng(50)
    states = system.initial_state + rng.uniform(-0.1, 0.1, (200, system.dim))
    columns = tuple(states.T)
    values, rows = stacked(fim.eval(columns)), fim.jacobian(columns)
    for i, state in enumerate(states.tolist()):
        xt = tuple(state)
        single_values, single_rows = fim.eval(xt), fim.jacobian(xt)
        assert len(single_values) == fim.dim_values
        assert all(type(v) is float for v in single_values)
        assert len(single_rows) == fim.dim_values
        assert all(len(row) == fim.dim_state and all(type(c) is float for c in row)
                   for row in single_rows)
        one = tuple(np.array([c]) for c in state)
        assert stacked(fim.eval(one))[0].tobytes() == np.array(single_values).tobytes()
        one_rows = [[np.broadcast_to(c, 1)[0] for c in row] for row in fim.jacobian(one)]
        assert np.array(one_rows).tobytes() == np.array(single_rows).tobytes()
        assert values[i].tobytes() == np.array(single_values).tobytes()
        entries = [[np.broadcast_to(c, len(states))[i] for c in row] for row in rows]
        assert np.array(entries).tobytes() == np.array(single_rows).tobytes()


def test_projection_rebuilds_its_correction_where_an_iteration_fails_to_halve_the_residual():
    # README's stall cell: the frozen correction holds the residual near
    # 2.7e-3 for 60 iterations; rebuilt at each iterate that fails to halve
    # it, the step converges within max_iter
    system = make_system("perturbed_kepler", initial_state=(0.4, 0.01, 0.0, 0.0, 2.0, 0.01),
                         mu=1.5, delta=0.01)
    fim = system.integral_map
    evals, jacobians = [], []

    def counted_eval(s):
        values = fim.eval(s)
        evals.append((s, math.hypot(*(v - t for v, t in zip(values, system.params.f0)))))
        return values

    def counted_jacobian(s):
        jacobians.append(s)
        return fim.jacobian(s)

    cfg = ProjectionConfig(
        constraint=dataclasses.replace(fim, eval=counted_eval, jacobian=counted_jacobian),
        target=system.params.f0, tol=1e-8)
    projection_step(cfg, system.field, system.initial_state, 0.03)
    norms = [n for _, n in evals]
    assert norms[-1] <= 1e-8 and len(norms) - 1 <= cfg.max_iter
    rebuilt = [s for (s, n), before in zip(evals[1:-1], norms) if n > 0.5 * before]
    assert rebuilt and jacobians == [evals[0][0], *rebuilt]


def test_projection_reports_nonconvergence(kepler_sys):
    cfg = ProjectionConfig(constraint=kepler_sys.integral_map,
                           target=kepler_sys.params.f0,
                           tol=1e-15, max_iter=1)
    far = tuple((kepler_sys.initial_state + np.array([0.3, 0.2, 0.0, 0.1, -0.2, 0.0])).tolist())
    with pytest.raises(ProjectionError) as info:
        projection_step(cfg, kepler_sys.field, far, 0.005)
    assert info.value.residual > 0.0


def test_projection_rank_error_on_degenerate_constraint():
    flat = FirstIntegralMap(
        dim_state=2, dim_values=1,
        eval=lambda x: (1.0,),
        jacobian=lambda x: ((0.0, 0.0),))
    cfg = ProjectionConfig(constraint=flat, target=(0.0,), tol=1e-10)
    with pytest.raises(RankError):
        projection_step(cfg, lambda s: (0.0, 0.0), (0.0, 0.0), 0.1)


def test_projection_config_validation(kepler_sys):
    with pytest.raises(ValueError):
        ProjectionConfig(constraint=kepler_sys.integral_map,
                         target=np.zeros(6), tol=0.0)
    with pytest.raises(ValueError):
        ProjectionConfig(constraint=kepler_sys.integral_map,
                         target=np.zeros(6), tol=1e-6, max_iter=0)
    for tol in (math.inf, math.nan, "1e-6"):
        # rnorm <= inf holds at every step: projection would be plain Euler
        with pytest.raises(ValueError, match="positive and finite"):
            ProjectionConfig(constraint=kepler_sys.integral_map, target=np.zeros(6), tol=tol)
    for max_iter in (2.5, "3", None):
        # a bare TypeError otherwise, from range() at the first step for 2.5
        with pytest.raises(ValueError, match=f"must be an integer, got {max_iter!r}"):
            ProjectionConfig(constraint=kepler_sys.integral_map, target=np.zeros(6), tol=1e-6,
                             max_iter=max_iter)
    for target in (np.zeros(5), np.zeros(7), np.zeros((6, 1)),
                   (0.0,) * 5, [0.0] * 7, ((0.0,),) * 6):
        with pytest.raises(ValueError, match="must hold 6 values"):
            ProjectionConfig(constraint=kepler_sys.integral_map, target=target, tol=1e-6)
    cfg = ProjectionConfig(constraint=kepler_sys.integral_map, target=[1.5] * 6, tol=1e-6)
    assert cfg.target == (1.5,) * 6 and all(type(v) is float for v in cfg.target)


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
    times, states = rollout(lambda x, h: (x[0] + h,), (0.0,), 0.5, 5, stride=2)
    assert list(times) == [0.0, 1.0, 2.0, 2.5]
    assert states.shape == (4, 1)


@pytest.mark.filterwarnings("ignore:overflow")
def test_rollout_attaches_step_index_on_blowup():
    grow = lambda s: (s[0] * 1e150,)
    with pytest.raises(IntegrationError) as info:
        rollout(lambda x, h: euler_step(grow, x, h), (1.0,), 1.0, 50)
    assert info.value.step is not None
    assert 1 <= info.value.step <= 50


def test_integrate_observes_start_and_every_step_and_returns_final():
    seen = []
    final = integrate(lambda x, h: (x[0] + h,), (0.0,), 0.5, 3,
                      lambda k, x: seen.append((k, x[0])))
    assert seen == [(0, 0.0), (1, 0.5), (2, 1.0), (3, 1.5)]
    assert final == (1.5,)


def test_integrate_rejects_a_start_state_that_is_not_a_tuple_of_floats():
    # an array, or a tuple of numpy scalars, would be stepped on numpy
    # scalars, where a float overflow gives inf and a RuntimeWarning
    # instead of an IntegrationError; the check comes before the start state
    # is observed
    seen = []
    for x0 in (np.zeros(3), tuple(np.zeros(3)), [0.0, 0.0, 0.0]):
        with pytest.raises(TypeError, match="tuple of Python floats"):
            integrate(lambda x, h: x, x0, 0.1, 5, lambda k, x: seen.append(k))
    assert seen == []


def test_integrate_turns_arithmetic_error_into_integration_error():
    def advance(x, h):
        if x[0] >= 2.0:
            raise ZeroDivisionError("float division by zero")
        return (x[0] + h,)

    with pytest.raises(IntegrationError) as info:
        integrate(advance, (0.0,), 1.0, 10, lambda k, x: None)
    assert info.value.step == 3
    assert isinstance(info.value.__cause__, ZeroDivisionError)


def test_integrate_numbers_a_failing_observation_as_its_step():
    def observe(k, x):
        if k == 4:
            raise OverflowError("math range error")

    with pytest.raises(IntegrationError) as info:
        integrate(lambda x, h: (x[0] + h,), (0.0,), 1.0, 10, observe)
    assert info.value.step == 4
    assert isinstance(info.value.__cause__, OverflowError)


def test_integrate_attaches_step_to_other_errors_unless_set():
    def leave_domain(x, h):
        if x[0] >= 1.0:
            raise DomainError("left the domain")
        return (x[0] + h,)

    with pytest.raises(DomainError) as info:
        integrate(leave_domain, (0.0,), 1.0, 10, lambda k, x: None)
    assert info.value.step == 2

    def preset(x, h):
        raise IntegrationError("already numbered", step=99)

    with pytest.raises(IntegrationError) as info:
        integrate(preset, (0.0,), 1.0, 10, lambda k, x: None)
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


def _is_valid(name, method):
    try:
        make_advance(make_system(name), method, ExperimentConfig())
    except ConfigError:
        return False
    return True


VALID_PAIRS = [(name, method) for name in SYSTEM_NAMES for method in METHOD_NAMES
               if _is_valid(name, method)]


def test_valid_pairs_are_the_twenty_documented_cells():
    assert len(VALID_PAIRS) == 20  # rigid body 6, Kepler 7, perturbed Kepler 7


def scheme_advance(system, method):
    """The method stepped by calling the public schemes directly, independently of make_advance."""
    field = system.modified_field if method.startswith("feedback") else system.field
    if method in ("feedback_euler", "euler"):
        return lambda x, h: euler_step(field, x, h)
    if method in ("feedback_rk4", "rk4"):
        return lambda x, h: rk4_step(field, x, h)
    if method == "projection_euler":
        cfg = ProjectionConfig(constraint=system.integral_map,
                               target=system.params.f0,
                               tol=system.projection_tol)
        return lambda x, h: projection_step(cfg, field, x, h)
    if method == "splitting":
        return system.splitting_step
    variant = method[-1].upper()

    def advance(x, h):
        q, v = stormer_verlet_step(system.accel, x[:3], x[3:], h, variant)
        return (*q, *v)

    return advance


@pytest.mark.parametrize("name, method", VALID_PAIRS)
def test_make_advance_steps_are_the_public_schemes_bit_for_bit(name, method):
    system = make_system(name)
    h = module(name).BENCHMARK_STEP
    # off the level set, so the feedback acts and projection's Newton loop runs
    xt = tuple((system.initial_state
                + np.random.default_rng(61).uniform(-1e-3, 1e-3, system.dim)).tolist())
    xa = xt
    advance = make_advance(system, method, ExperimentConfig())
    reference = scheme_advance(system, method)
    for _ in range(200):
        xt, xa = advance(xt, h), reference(xa, h)
        assert type(xt) is tuple and all(type(c) is float for c in xt)
        assert np.array(xt).tobytes() == np.array(xa).tobytes()


def is_float_tuple(x) -> bool:
    return type(x) is tuple and all(type(c) is float for c in x)


@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_a_single_state_and_every_parameter_vector_are_tuples_of_floats(name):
    system = make_system(name)
    explicit = make_system(name, initial_state=np.array(system.initial_state))
    states = [system.initial_state, explicit.initial_state,
              system.sample_state(np.random.default_rng(63))]
    if name == "kepler":
        states.append(kepler.state_at_eccentric_anomaly(system.params, 0.3))
    # off the level set, so the feedback acts and projection's Newton loop runs
    x = tuple((np.array(system.initial_state)
               + np.random.default_rng(64).uniform(-1e-3, 1e-3, system.dim)).tolist())
    h = module(name).BENCHMARK_STEP
    states += [make_advance(system, method, ExperimentConfig())(x, h)
               for system_name, method in VALID_PAIRS if system_name == name]
    if system.splitting_step is not None:
        states.append(system.splitting_step(x, h))
    for s in states:
        assert is_float_tuple(s) and len(s) == system.dim
    for vector in (system.params.K, system.params.f0):
        assert is_float_tuple(vector)
    for f in dataclasses.fields(system.params):
        value = getattr(system.params, f.name)
        assert not isinstance(value, np.ndarray)
        if isinstance(value, tuple):
            assert is_float_tuple(value), f.name


@pytest.mark.parametrize("name, method", VALID_PAIRS)
def test_strided_csv_is_the_array_rollout_to_17_digits(tmp_path, name, method):
    out = tmp_path / "stride3.csv"
    h, n = module(name).BENCHMARK_STEP, 20
    run_experiment(ExperimentConfig(system=name, method=method, h=h, t_end=(n + 0.5) * h,
                                    output_path=str(out), sample_stride=3))
    system = make_system(name)
    times, states = rollout(scheme_advance(system, method), system.initial_state, h, n,
                            stride=3)
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 1 + n // 3 + 1  # header, step 0, every third step, step n
    for line, t, s in zip(lines[1:], times, states.tolist(), strict=True):
        values = (t, *s, *system.drift_metrics(s))
        assert line.split(",") == [format(v, ".17g") for v in values]


def numpy_euler(field, x, h):
    return x + h * field(x)


def numpy_rk4(field, x, h):
    k1 = field(x)
    k2 = field(x + (0.5 * h) * k1)
    k3 = field(x + (0.5 * h) * k2)
    k4 = field(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def numpy_stormer_verlet(accel, q, v, h, variant):
    if variant == "A":
        vh = v + (0.5 * h) * accel(q)
        q1 = q + h * vh
        return q1, vh + (0.5 * h) * accel(q1)
    qh = q + (0.5 * h) * v
    v1 = v + h * accel(qh)
    return qh + (0.5 * h) * v1, v1


@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_schemes_do_the_arithmetic_of_numpy_vectors(name):
    # the tuple schemes against the same formulas on numpy vectors, whose
    # field is the same kernel on the vector's floats
    def on_vectors(kernel):
        return lambda y: np.array(kernel(tuple(y.tolist())))

    system = make_system(name)
    h = module(name).BENCHMARK_STEP
    x0 = system.initial_state + np.random.default_rng(62).uniform(-1e-3, 1e-3, system.dim)
    for scheme, reference in ((euler_step, numpy_euler), (rk4_step, numpy_rk4)):
        for field in (system.field, system.modified_field):
            x, y = tuple(x0.tolist()), x0
            for _ in range(200):
                x, y = scheme(field, x, h), reference(on_vectors(field), y, h)
                assert np.array(x).tobytes() == y.tobytes()
    if system.accel is None:
        return
    for variant in "AB":
        q, v = tuple(x0[:3].tolist()), tuple(x0[3:].tolist())
        p, w = x0[:3], x0[3:]
        for _ in range(200):
            q, v = stormer_verlet_step(system.accel, q, v, h, variant)
            p, w = numpy_stormer_verlet(on_vectors(system.accel), p, w, h, variant)
            assert np.array(q).tobytes() == p.tobytes() and np.array(v).tobytes() == w.tobytes()
