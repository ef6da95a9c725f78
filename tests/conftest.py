"""Shared fixtures: the benchmark systems and the heavy trajectory runs,
plus the orbital precession measurements of the perturbed-Kepler checks.

The long integrations (minutes in total) are computed once per session and
reused by both the module tests and the acceptance suite. They carry their
state as a tuple of Python floats, the form the schemes step directly.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from lyapint.cli import DriftObserver, ExperimentConfig, make_advance
from lyapint.integrators import integrate, steps_for
from lyapint.systems import make_system

# Per-step allowance for scheme truncation in the V-decrease property.
DECREASE_TAU = 1e-9


def run_with_metrics(system, method, h, t_end, state_stride=0, v_windows=(),
                     series_stride=0, series_metric=None, x0=None, cfg=None):
    """Integrate ``method`` from x0 (default: the system's start) as
    ``lyapint run`` does: the advance from ``make_advance`` and the drift
    rows and their maxima over steps 0..n from a ``DriftObserver``.

    Optionally records subsampled states, windowed V maxima (max V over
    t <= cutoff for each cutoff in ``v_windows``), one metric at every
    ``series_stride``-th step of 1..n, and the worst per-step rise of V beyond
    the truncation allowance.
    """
    s0 = system.initial_state if x0 is None else x0
    n = steps_for(t_end, h)
    observer = DriftObserver(system)
    advance = make_advance(system, method, cfg or ExperimentConfig(), observer)
    drift = observer.observe
    column = system.drift_names.index(series_metric) if series_stride else None
    times, states, series = [], [], []
    v_window_max = dict.fromkeys(v_windows, -math.inf)
    v_prev = None
    worst_rise = -math.inf

    def observe(k, x):
        nonlocal v_prev, worst_rise
        row = drift(k, x)
        v = row[0]
        if k:
            worst_rise = max(worst_rise, v - v_prev - DECREASE_TAU * (1.0 + v_prev))
            if series_stride and k % series_stride == 0:
                series.append(row[column])
        v_prev = v
        t = k * h
        for cut in v_windows:
            if t <= cut and v_window_max[cut] < v:
                v_window_max[cut] = v
        if state_stride and (k % state_stride == 0 or k == n):
            times.append(t)
            states.append(x)

    started = time.perf_counter()
    integrate(advance, s0, h, n, observe)
    return SimpleNamespace(
        maxima=observer.max_drift(),
        times=np.array(times),
        states=np.array(states),
        worst_rise=worst_rise,
        v_window_max=v_window_max,
        series=np.array(series) if series else None,
        n_steps=n,
        wall_time=time.perf_counter() - started,
    )


def drift_by_name(system, x) -> dict:
    """``system.drift_metrics(x)`` keyed by the column names."""
    return dict(zip(system.drift_names, system.drift_metrics(x), strict=True))


def state_with_lyapunov(system, v_target: float, seed: int = 0) -> tuple:
    """Deterministic state with V equal to v_target, as a tuple of floats.

    Moves from the system's reference initial state along a fixed random
    direction and bisects the scaling until V matches to 1e-12 relative.
    """
    if v_target == 0.0:
        return system.initial_state
    if v_target < 0.0:
        raise ValueError("v_target must be nonnegative")
    x0 = np.array(system.initial_state)
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(system.dim)
    direction /= math.sqrt(float(direction @ direction))

    def state(scale):
        return tuple((x0 + scale * direction).tolist())

    def value(scale):
        return system.lyapunov(state(scale))

    hi = 1e-6
    while value(hi) < v_target:
        hi *= 2.0
        if hi > 1e9:
            raise RuntimeError("failed to bracket the requested V level")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if value(mid) < v_target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return state(hi)


def v_plateau(system, method, h, x0, horizon):
    """Median of V over the final tenth of the steps when the feedback
    ``method`` integrates from x0; V must stay within the basin bound on the way."""
    run = run_with_metrics(system, method, h, horizon, series_stride=1, series_metric="V",
                           x0=x0)
    assert run.maxima["V"] <= system.gain_bound
    return float(np.median(run.series[-max(1, (run.n_steps + 1) // 10):]))


def global_order_ratio(step, field, x0, t_end, h, exact):
    """Ratio of global errors at steps h and h/2 against a known endpoint.

    ``x0`` is a tuple of floats, the form ``integrate`` and the schemes step.
    """

    def err(hh):
        x = integrate(lambda x, dt: step(field, x, dt), x0, hh, round(t_end / hh),
                      lambda k, x: None)
        return float(np.linalg.norm(np.subtract(x, exact)))

    return err(h) / err(h / 2.0)


def pack(R, Omega) -> tuple:
    """A rigid-body state as a tuple of 12 floats: R row-major, then Omega."""
    return tuple(np.concatenate((np.asarray(R, dtype=float).reshape(9),
                                 np.asarray(Omega, dtype=float))).tolist())


def unpack(s):
    """(R, Omega) of a rigid-body state, as arrays (3, 3) and (3,)."""
    s = np.asarray(s, dtype=float)
    return s[:9].reshape(3, 3), s[9:]


def perihelion_passages(times: np.ndarray, states: np.ndarray, r_gate: float = np.inf):
    """Perihelion times and apse angles from a sampled orbital trajectory.

    Local minima of the radius below ``r_gate`` mark passages; the minimum
    position is refined by a parabolic fit in time through the three
    bracketing samples, and the in-plane angle of the position there is
    returned unwrapped. States must hold position in the first three
    components.
    """
    rs = np.array([math.sqrt(float(s[:3] @ s[:3])) for s in states])
    t_list = []
    angles = []
    for i in range(1, len(rs) - 1):
        if rs[i] < rs[i - 1] and rs[i] <= rs[i + 1] and rs[i] < r_gate:
            denom = rs[i - 1] - 2.0 * rs[i] + rs[i + 1]
            shift = 0.5 * (rs[i - 1] - rs[i + 1]) / denom if denom > 0.0 else 0.0
            shift = min(0.5, max(-0.5, shift))
            j = i + 1 if shift > 0.0 else i - 1
            w = abs(shift)
            theta_i = math.atan2(states[i][1], states[i][0])
            theta_j = math.atan2(states[j][1], states[j][0])
            # local unwrap before blending the two sample angles
            if theta_j - theta_i > math.pi:
                theta_j -= 2.0 * math.pi
            elif theta_i - theta_j > math.pi:
                theta_j += 2.0 * math.pi
            angles.append((1.0 - w) * theta_i + w * theta_j)
            t_list.append((1.0 - w) * times[i] + w * times[j])
    return np.array(t_list), np.unwrap(np.array(angles))


def precession_rate(times: np.ndarray, states: np.ndarray) -> float:
    """Mean apse advance per radial period, in radians."""
    t_peri, angles = perihelion_passages(times, states)
    if len(angles) < 2:
        raise ValueError("need at least two perihelion passages to measure precession")
    return float((angles[-1] - angles[0]) / (len(angles) - 1))


def sampled(system, n, seed) -> np.ndarray:
    """The first n states that ``system.sample_state`` draws from
    default_rng(seed), as an array (n, dim)."""
    rng = np.random.default_rng(seed)
    return np.array([system.sample_state(rng) for _ in range(n)])


def hat(w):
    """Skew-symmetric matrix of a 3-vector: hat(u) @ v is the cross product u x v."""
    return np.array(((0.0, -w[2], w[1]), (w[2], 0.0, -w[0]), (-w[1], w[0], 0.0)))


def rodrigues(axis, angle):
    # exact rotation matrix oracle, independent of the package's factors
    k = np.asarray(axis, dtype=float)
    k = k / np.linalg.norm(k)
    km = hat(k)
    return np.eye(3) + math.sin(angle) * km + (1 - math.cos(angle)) * (km @ km)


def random_rotation(rng):
    return rodrigues(rng.standard_normal(3), rng.uniform(0, 2 * math.pi))


def central_difference_gradient(fun, x, eps=1e-6):
    """Central differences of fun, which takes a state as a tuple of floats."""
    x = np.array(x, dtype=float)
    g = np.empty(len(x))
    for i in range(len(x)):
        xp = x.copy()
        xp[i] += eps
        xm = x.copy()
        xm[i] -= eps
        g[i] = (fun(tuple(xp.tolist())) - fun(tuple(xm.tolist()))) / (2.0 * eps)
    return g


# The kernel-contract models, two per system, by id: the benchmark constants
# and gains, and other constants with other gains, each started off the
# benchmark orbit. The rigid-body attitude, the rotation by 2 pi / 3 about
# (1, 1, 1), has R^T R = I exactly, so V and its gradient vanish at the start.
_ORBITAL_START = (1.0, 0.2, -0.1, 0.1, 1.1, 0.3)
_RIGID_START = (0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.4, -1.2, 0.9)
CONTRACT_MODELS = {
    "kepler-benchmark": ("kepler", _ORBITAL_START, {}, {}),
    "kepler-mu2.5": ("kepler", _ORBITAL_START, {"k1": 0.3, "k2": 7.0}, {"mu": 2.5}),
    "perturbed_kepler-benchmark": ("perturbed_kepler", _ORBITAL_START, {}, {}),
    "perturbed_kepler-mu2.5-delta0.04": ("perturbed_kepler", _ORBITAL_START,
                                         {"k1": 0.5, "k2": 7.0}, {"mu": 2.5, "delta": 0.04}),
    "rigid_body-benchmark": ("rigid_body", _RIGID_START, {}, {}),
    "rigid_body-inertia0.7,1.9,4.2": ("rigid_body", _RIGID_START,
                                      {"k0": 0.3, "k1": 7.0, "k2": 2.5},
                                      {"inertia": (0.7, 1.9, 4.2)}),
}


def contract_models(*systems):
    """The CONTRACT_MODELS of ``systems`` (default: all) as pytest params,
    each the SystemModel that make_system builds, with the table's id."""
    return [pytest.param(make_system(name, start, gains=gains, **constants), id=key)
            for key, (name, start, gains, constants) in CONTRACT_MODELS.items()
            if not systems or name in systems]


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
    return run_with_metrics(rigid_sys, "feedback_euler", h=1e-4, t_end=50.0, v_windows=(20.0,))


@pytest.fixture(scope="session")
def rigid_plain_euler_50(rigid_sys):
    """Plain-Euler contrast run with a coarse |dE| series for trend checks."""
    return run_with_metrics(rigid_sys, "euler", h=1e-4, t_end=50.0,
                            series_stride=1000, series_metric="dE")


@pytest.fixture(scope="session")
def rigid_ref_period(rigid_sys):
    """High-accuracy reference: RK4 at h = 1e-5 over one angular-velocity period."""
    return run_with_metrics(rigid_sys, "rk4", h=1e-5, t_end=rigid_sys.period,
                            state_stride=5000)


@pytest.fixture(scope="session")
def kepler_feedback_10T(kepler_sys):
    return run_with_metrics(kepler_sys, "feedback_euler", h=0.005,
                            t_end=10.0 * kepler_sys.period)


@pytest.fixture(scope="session")
def kepler_sva_10T(kepler_sys):
    return run_with_metrics(kepler_sys, "stormer_verlet_a", h=0.005,
                            t_end=10.0 * kepler_sys.period,
                            series_stride=1000, series_metric="dA")


@pytest.fixture(scope="session")
def kepler_ref_period(kepler_sys):
    """RK4 at h = 1e-4 over one orbital period."""
    return run_with_metrics(kepler_sys, "rk4", h=1e-4, t_end=kepler_sys.period)


@pytest.fixture(scope="session")
def pk_runs(pk_sys):
    """The four perturbed-Kepler benchmark trajectories over t in [0, 200]."""
    cfg = ExperimentConfig(system="perturbed_kepler", projection_tol=1e-8)
    runs = {name: run_with_metrics(pk_sys, method, h=0.03, t_end=200.0, state_stride=1,
                                   cfg=cfg)
            for name, method in (("feedback", "feedback_euler"),
                                 ("stormer_verlet", "stormer_verlet_a"),
                                 ("projection", "projection_euler"))}
    runs["reference"] = run_with_metrics(pk_sys, "rk4", h=1e-4, t_end=200.0, state_stride=100,
                                         cfg=cfg)
    return runs


@pytest.fixture(scope="session")
def rigid_plateaus(rigid_sys):
    """V plateaus from V = 1 over t in [0, 20]: Euler for h = 4e-4, 2e-4 and
    1e-4 (a tuple), and RK4 at h = 1e-4."""
    x0 = state_with_lyapunov(rigid_sys, 1.0)
    return SimpleNamespace(
        euler=tuple(v_plateau(rigid_sys, "feedback_euler", h, x0, 20.0)
                    for h in (4e-4, 2e-4, 1e-4)),
        rk4=v_plateau(rigid_sys, "feedback_rk4", 1e-4, x0, 20.0))
