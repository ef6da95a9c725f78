"""Shared fixtures: the benchmark systems and the heavy trajectory runs.

The long integrations (minutes in total) are computed once per session and
reused by both the module tests and the acceptance suite. They carry their
state as a tuple of Python floats, the form the schemes step directly.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from lyapint.cli import ExperimentConfig, make_advance
from lyapint.integrators import euler_step, integrate, rk4_step, steps_for
from lyapint.numerics import components
from lyapint.systems import make_system

# Per-step allowance for scheme truncation in the V-decrease property.
DECREASE_TAU = 1e-9


def run_with_metrics(system, advance, h, t_end, x0=None, state_stride=0,
                     v_windows=(), series_stride=0, series_metric=None):
    """Advance a trajectory tracking drift maxima at full resolution.

    Optionally records subsampled states, windowed V maxima (max V over
    t <= cutoff for each cutoff in ``v_windows``), a coarse series of one
    metric, and the worst per-step rise of V beyond the truncation allowance.
    """
    s0 = components(np.array(system.initial_state if x0 is None else x0, dtype=float))
    n = steps_for(t_end, h)
    maxima = {}
    times, states = [0.0], [s0]
    series = []
    v_prev = system.lyapunov(s0)
    v_window_max = {cut: v_prev for cut in v_windows}
    worst_rise = -math.inf

    def observe(k, x):
        nonlocal v_prev, worst_rise
        if k == 0:  # the start state is recorded above; maxima cover steps 1..n
            return
        m = system.drift_metrics(x, s0)
        for key, value in m.items():
            if maxima.get(key, -1.0) < value:
                maxima[key] = value
        v = m["V"]
        worst_rise = max(worst_rise, v - v_prev - DECREASE_TAU * (1.0 + v_prev))
        v_prev = v
        t = k * h
        for cut in v_windows:
            if t <= cut and v_window_max[cut] < v:
                v_window_max[cut] = v
        if state_stride and (k % state_stride == 0 or k == n):
            times.append(t)
            states.append(x)
        if series_stride and k % series_stride == 0:
            series.append(m[series_metric])

    started = time.perf_counter()
    final = integrate(advance, s0, h, n, observe)
    return SimpleNamespace(
        maxima=maxima,
        times=np.array(times),
        states=np.array(states),
        final=np.array(final),
        worst_rise=worst_rise,
        v_window_max=v_window_max,
        series=np.array(series) if series else None,
        n_steps=n,
        wall_time=time.perf_counter() - started,
    )


def global_order_ratio(step, field, x0, t_end, h, exact):
    """Ratio of global errors at steps h and h/2 against a known endpoint.

    ``x0`` is stepped as ``integrate`` takes it: a tuple of floats on the
    float path, anything else as an array.
    """

    def err(hh):
        x = integrate(lambda x, dt: step(field, x, dt), x0, hh, round(t_end / hh),
                      lambda k, x: None)
        return float(np.linalg.norm(x - exact))

    return err(h) / err(h / 2.0)


def central_difference_gradient(fun, x, eps=1e-6):
    g = np.empty(len(x))
    for i in range(len(x)):
        xp = x.copy()
        xp[i] += eps
        xm = x.copy()
        xm[i] -= eps
        g[i] = (fun(xp) - fun(xm)) / (2.0 * eps)
    return g


@pytest.fixture(scope="session")
def rigid_sys():
    return make_system("rigid_body")


@pytest.fixture(scope="session")
def kepler_sys():
    return make_system("kepler")


@pytest.fixture(scope="session")
def pk_sys():
    return make_system("perturbed_kepler")


@pytest.fixture(scope="session")
def rigid_feedback_50(rigid_sys):
    """Feedback-Euler benchmark run: h = 1e-4, t in [0, 50], start on the level set."""
    return run_with_metrics(
        rigid_sys, lambda x, h: euler_step(rigid_sys.modified_field, x, h),
        h=1e-4, t_end=50.0, v_windows=(20.0,))


@pytest.fixture(scope="session")
def rigid_plain_euler_50(rigid_sys):
    """Plain-Euler contrast run with a coarse |dE| series for trend checks."""
    return run_with_metrics(
        rigid_sys, lambda x, h: euler_step(rigid_sys.field, x, h),
        h=1e-4, t_end=50.0, series_stride=1000, series_metric="dE")


@pytest.fixture(scope="session")
def rigid_ref_period(rigid_sys):
    """High-accuracy reference: RK4 at h = 1e-5 over one angular-velocity period."""
    return run_with_metrics(
        rigid_sys, lambda x, h: rk4_step(rigid_sys.field, x, h),
        h=1e-5, t_end=rigid_sys.period, state_stride=5000)


@pytest.fixture(scope="session")
def kepler_feedback_10T(kepler_sys):
    return run_with_metrics(
        kepler_sys, lambda x, h: euler_step(kepler_sys.modified_field, x, h),
        h=0.005, t_end=10.0 * kepler_sys.period)


@pytest.fixture(scope="session")
def kepler_sva_10T(kepler_sys):
    return run_with_metrics(
        kepler_sys, make_advance(kepler_sys, "stormer_verlet_a", ExperimentConfig()),
        h=0.005, t_end=10.0 * kepler_sys.period,
        series_stride=1000, series_metric="dA")


@pytest.fixture(scope="session")
def kepler_ref_period(kepler_sys):
    """RK4 at h = 1e-4 over one orbital period."""
    return run_with_metrics(
        kepler_sys, lambda x, h: rk4_step(kepler_sys.field, x, h),
        h=1e-4, t_end=kepler_sys.period)


@pytest.fixture(scope="session")
def pk_runs(pk_sys):
    """The four perturbed-Kepler benchmark trajectories over t in [0, 200]."""
    cfg = ExperimentConfig(system="perturbed_kepler", projection_tol=1e-8)
    runs = {}
    runs["feedback"] = run_with_metrics(
        pk_sys, make_advance(pk_sys, "feedback_euler", cfg),
        h=0.03, t_end=200.0, state_stride=1)
    runs["stormer_verlet"] = run_with_metrics(
        pk_sys, make_advance(pk_sys, "stormer_verlet_a", cfg),
        h=0.03, t_end=200.0, state_stride=1)
    runs["projection"] = run_with_metrics(
        pk_sys, make_advance(pk_sys, "projection_euler", cfg),
        h=0.03, t_end=200.0, state_stride=1)
    runs["reference"] = run_with_metrics(
        pk_sys, make_advance(pk_sys, "rk4", cfg),
        h=1e-4, t_end=200.0, state_stride=100)
    return runs


@pytest.fixture(scope="session")
def rigid_plateaus(rigid_sys):
    """Attractor study data: Euler plateaus for halving steps, plus RK4 at 1e-4."""
    from lyapint.diagnostics import attractor_step_study

    euler_res = attractor_step_study(
        rigid_sys, euler_step, (4e-4, 2e-4, 1e-4), v_init=1.0, horizon=20.0)
    rk4_res = attractor_step_study(
        rigid_sys, rk4_step, (1e-4,), v_init=1.0, horizon=20.0)
    return SimpleNamespace(euler=euler_res, rk4=rk4_res)
