"""Uniform flat-vector view of the shipped systems.

A ``SystemModel`` bundles everything the drift diagnostics, validators and
the experiment runner need: the original and feedback vector fields, the
stacked integral map with its gain spec, drift metrics relative to a run's
initial state, and a sampler for randomized property checks.
"""

from __future__ import annotations  # np.random.Generator would load numpy.random

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import kepler, perturbed_kepler, rigid_body
from .feedback import FeedbackSpec, FirstIntegralMap

SYSTEM_NAMES = ("rigid_body", "kepler", "perturbed_kepler")


@dataclass(frozen=True)
class SystemModel:
    name: str
    dim: int
    params: object
    field: Callable[[np.ndarray], np.ndarray]
    modified_field: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    lyapunov: Callable[[np.ndarray], float]
    integral_map: FirstIntegralMap
    feedback_spec: FeedbackSpec
    initial_state: np.ndarray
    state_names: tuple
    drift_names: tuple
    drift_metrics: Callable[[np.ndarray, np.ndarray], dict]
    sample_state: Callable[[np.random.Generator], np.ndarray]
    gain_bound: float
    period: float
    projection_tol: float
    accel: Optional[Callable[[np.ndarray], np.ndarray]] = None
    splitting_step: Optional[Callable[[np.ndarray, float], np.ndarray]] = None


def _rigid_sampler(rng: np.random.Generator) -> np.ndarray:
    # Attitudes I + U, U uniform in [-0.5, 0.5]^(3x3), near (but not on) the
    # rotation group with positive determinant.
    while True:
        u00, u01, u02, u10, u11, u12, u20, u21, u22 = rng.uniform(-0.5, 0.5, size=9).tolist()
        a00, a11, a22 = 1.0 + u00, 1.0 + u11, 1.0 + u22
        det = (a00 * (a11 * a22 - u12 * u21) - u01 * (u10 * a22 - u12 * u20)
               + u02 * (u10 * u21 - a11 * u20))
        if det > 1e-3:
            break
    return np.array((a00, u01, u02, u10, a11, u12, u20, u21, a22,
                     *rng.uniform(-2.0, 2.0, size=3).tolist()))


def _orbital_sampler(rng: np.random.Generator, r_min: float = 0.2) -> np.ndarray:
    # Positions uniform in [-2, 2]^3 with |x| >= 0.2, then velocities uniform
    # in [-1.5, 1.5]^3; a state with |x| < r_min is drawn again from the start.
    while True:
        x0, x1, x2 = rng.uniform(-2.0, 2.0, size=3).tolist()
        r = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2)
        if r >= 0.2:
            v = rng.uniform(-1.5, 1.5, size=3).tolist()
            if r >= r_min:
                return np.array((x0, x1, x2, *v))


def rigid_body_system(params=None, initial_state=None, gains=None, inertia=None) -> SystemModel:
    if params is None:
        k0, k1, k2 = gains if gains is not None else rigid_body.BENCHMARK_GAINS
        params, default_initial = rigid_body.benchmark_setup(k0=k0, k1=k1, k2=k2, inertia=inertia)
        if initial_state is None:
            initial_state = default_initial
        else:
            initial_state = np.asarray(initial_state, dtype=float)
            R0, W0 = rigid_body.unpack(initial_state)
            params = rigid_body.RigidBodyParams.from_initial(
                params.inertia, R0, W0, params.k0, params.k1, params.k2)
    else:
        initial_state = np.asarray(initial_state, dtype=float)

    p = params
    inertia = tuple(p.inertia.tolist())
    start = rigid_body.invariant_components(inertia, initial_state)
    target = (float(p.E0), *p.pi0.tolist())

    def drift(s, _s0, start=start, target=target):
        # single pass on floats; V matches rigid_body.lyapunov term for term
        E, q0, q1, q2, defect_sq = rigid_body.invariant_components(inertia, s)
        E_start, s0, s1, s2, _ = start
        u0, u1, u2 = q0 - s0, q1 - s1, q2 - s2
        dE = E - target[0]
        d0, d1, d2 = q0 - target[1], q1 - target[2], q2 - target[3]
        return {
            "dE": abs(E - E_start),
            "dPi": math.sqrt(u0 * u0 + u1 * u1 + u2 * u2),
            "so3dev": math.sqrt(defect_sq),
            "V": (0.25 * p.k0 * defect_sq + 0.5 * p.k1 * dE * dE
                  + 0.5 * p.k2 * (d0 * d0 + d1 * d1 + d2 * d2)),
        }

    return SystemModel(
        name="rigid_body",
        dim=rigid_body.DIM,
        params=p,
        field=lambda s: rigid_body.field(p, s),
        modified_field=lambda s: rigid_body.modified_field(p, s),
        gradient=lambda s: rigid_body.lyapunov_gradient(p, s),
        lyapunov=lambda s: rigid_body.lyapunov(p, s),
        integral_map=rigid_body.integral_map(p),
        feedback_spec=rigid_body.feedback_spec(p),
        initial_state=initial_state,
        state_names=rigid_body.STATE_NAMES,
        drift_names=("dE", "dPi", "so3dev", "V"),
        drift_metrics=drift,
        sample_state=_rigid_sampler,
        gain_bound=rigid_body.gain_bound(p),
        period=rigid_body.BENCHMARK_OMEGA_PERIOD,
        projection_tol=1e-4,
        splitting_step=lambda s, h: rigid_body.splitting_step(p, s, h),
    )


def kepler_system(params=None, initial_state=None, gains=None, mu=None) -> SystemModel:
    if params is None:
        k1, k2 = gains if gains is not None else kepler.BENCHMARK_GAINS
        params, default_initial = kepler.benchmark_setup(k1=k1, k2=k2, mu=mu)
        if initial_state is None:
            initial_state = default_initial
        else:
            initial_state = np.asarray(initial_state, dtype=float)
            params = kepler.KeplerParams.from_initial(
                params.mu, initial_state[:3], initial_state[3:], params.k1, params.k2)
    else:
        initial_state = np.asarray(initial_state, dtype=float)

    p = params
    start = kepler.invariant_components(p.mu, initial_state)
    target = (*p.L0.tolist(), *p.A0.tolist())
    _, _, period = kepler.orbit_geometry(p)

    def drift(s, _s0, start=start, target=target):
        # single pass on floats; V matches kepler.lyapunov term for term
        l0, l1, l2, a0, a1, a2, E = kepler.invariant_components(p.mu, s)
        L0x, L0y, L0z, A0x, A0y, A0z, E0 = start
        u0, u1, u2 = l0 - L0x, l1 - L0y, l2 - L0z
        w0, w1, w2 = a0 - A0x, a1 - A0y, a2 - A0z
        d0, d1, d2 = l0 - target[0], l1 - target[1], l2 - target[2]
        e0, e1, e2 = a0 - target[3], a1 - target[4], a2 - target[5]
        return {
            "dL": math.sqrt(u0 * u0 + u1 * u1 + u2 * u2),
            "dA": math.sqrt(w0 * w0 + w1 * w1 + w2 * w2),
            "dE": abs(E - E0),
            "V": (0.5 * p.k1 * (d0 * d0 + d1 * d1 + d2 * d2)
                  + 0.5 * p.k2 * (e0 * e0 + e1 * e1 + e2 * e2)),
        }

    return SystemModel(
        name="kepler",
        dim=kepler.DIM,
        params=p,
        field=lambda s: kepler.field(p, s),
        modified_field=lambda s: kepler.modified_field(p, s),
        gradient=lambda s: kepler.lyapunov_gradient(p, s),
        lyapunov=lambda s: kepler.lyapunov(p, s),
        integral_map=kepler.integral_map(p),
        feedback_spec=kepler.feedback_spec(p),
        initial_state=initial_state,
        state_names=kepler.STATE_NAMES,
        drift_names=("dL", "dA", "dE", "V"),
        drift_metrics=drift,
        sample_state=_orbital_sampler,
        gain_bound=kepler.gain_bound(p),
        period=period,
        projection_tol=0.005,
        accel=lambda q: kepler.accel(p, q),
    )


def perturbed_kepler_system(params=None, initial_state=None, gains=None,
                            mu=None, delta=None, eccentricity=None) -> SystemModel:
    if params is None:
        k1, k2 = gains if gains is not None else perturbed_kepler.BENCHMARK_GAINS
        params, default_initial = perturbed_kepler.benchmark_setup(
            k1=k1, k2=k2, mu=mu, delta=delta, eccentricity=eccentricity)
        if initial_state is None:
            initial_state = default_initial
        else:
            initial_state = np.asarray(initial_state, dtype=float)
            params = perturbed_kepler.PerturbedKeplerParams.from_initial(
                params.potential, initial_state[:3], initial_state[3:],
                params.k1, params.k2)
    else:
        initial_state = np.asarray(initial_state, dtype=float)

    p = params
    start = perturbed_kepler.invariant_components(p.potential, initial_state)
    target = (float(p.E0), *p.L0.tolist())
    # Radial period estimate from the osculating Kepler ellipse of the start
    # point; adequate for choosing desk-scale horizons.
    a = -1.0 / (2.0 * start[0]) if start[0] < 0.0 else 1.0
    period = 2.0 * math.pi * math.sqrt(abs(a) ** 3)

    def drift(s, _s0, start=start, target=target):
        # single pass on floats; V matches perturbed_kepler.lyapunov term for term
        E, l0, l1, l2 = perturbed_kepler.invariant_components(p.potential, s)
        E_start, L0x, L0y, L0z = start
        u0, u1, u2 = l0 - L0x, l1 - L0y, l2 - L0z
        dE = E - target[0]
        d0, d1, d2 = l0 - target[1], l1 - target[2], l2 - target[3]
        return {
            "dE": abs(E - E_start),
            "dL": math.sqrt(u0 * u0 + u1 * u1 + u2 * u2),
            "V": 0.5 * p.k1 * dE * dE + 0.5 * p.k2 * (d0 * d0 + d1 * d1 + d2 * d2),
        }

    return SystemModel(
        name="perturbed_kepler",
        dim=perturbed_kepler.DIM,
        params=p,
        field=lambda s: perturbed_kepler.field(p, s),
        modified_field=lambda s: perturbed_kepler.modified_field(p, s),
        gradient=lambda s: perturbed_kepler.lyapunov_gradient(p, s),
        lyapunov=lambda s: perturbed_kepler.lyapunov(p, s),
        integral_map=perturbed_kepler.integral_map(p),
        feedback_spec=perturbed_kepler.feedback_spec(p),
        initial_state=initial_state,
        state_names=perturbed_kepler.STATE_NAMES,
        drift_names=("dE", "dL", "V"),
        drift_metrics=drift,
        sample_state=lambda rng: _orbital_sampler(rng, r_min=0.25),  # off the repulsive core
        gain_bound=float("inf"),
        period=period,
        projection_tol=1e-8,
        accel=lambda q: perturbed_kepler.accel(p, q),
    )


_BUILDERS = {
    "rigid_body": rigid_body_system,
    "kepler": kepler_system,
    "perturbed_kepler": perturbed_kepler_system,
}


def make_system(name: str, **kwargs) -> SystemModel:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown system {name!r}; choose from {SYSTEM_NAMES}") from None
    return builder(**kwargs)
