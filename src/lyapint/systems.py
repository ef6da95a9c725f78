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

# Uniforms per generator call in SystemModel.sample_blocks: a few blocks of
# states' worth, so that numpy's per-call cost vanishes next to the kernel.
SAMPLE_REFILL = 4096


@dataclass(frozen=True)
class SystemModel:
    """One shipped system: its fields, integrals, metrics and state sampler.

    ``sampler(draw)`` is the system's one sampler kernel. It returns a state
    as a tuple of floats, where ``draw(k)`` gives the next ``k`` standard
    uniforms in ``[0, 1)`` as Python floats. ``sample_state(rng)`` draws
    exactly the uniforms its state uses, so its states and the generator
    state after each call are those of the same sampler on ``rng.uniform``.
    ``sample_blocks(rng, n, block)`` yields the same ``n`` states in the same
    order, as a generator's uniforms form one stream however they are
    requested, but may leave the generator past the last of them.
    """

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
    sampler: Callable[[Callable[[int], list]], tuple]
    gain_bound: float
    period: float
    projection_tol: float
    accel: Optional[Callable[[np.ndarray], np.ndarray]] = None
    splitting_step: Optional[Callable[[np.ndarray, float], np.ndarray]] = None

    def sample_state(self, rng: np.random.Generator) -> np.ndarray:
        """One random state, drawing one ``rng.random(k)`` per kernel request."""
        return np.array(self.sampler(lambda k: rng.random(k).tolist()))

    def sample_blocks(self, rng: np.random.Generator, n_samples: int, block: int):
        """The first n_samples states of ``sample_state`` on rng, in blocks.

        Yields arrays of ``block`` rows (fewer in the last), one at a time;
        the uniforms come from one buffer that ``_buffered_draw`` refills.
        """
        draw = _buffered_draw(rng)
        for start in range(0, n_samples, block):
            yield np.array([self.sampler(draw) for _ in range(min(block, n_samples - start))])


def _buffered_draw(rng: np.random.Generator) -> Callable[[int], list]:
    # draw(k) served from one list of uniforms, refilled by one
    # rng.random(SAMPLE_REFILL) call once fewer than k are left
    buffer, pos = [], 0

    def draw(k):
        nonlocal buffer, pos
        end = pos + k
        while end > len(buffer):
            buffer = buffer[pos:] + rng.random(SAMPLE_REFILL).tolist()
            end -= pos
            pos = 0
        out = buffer[pos:end]
        pos = end
        return out

    return draw


# The sampler kernels map a standard uniform u to [low, high) as
# low + (high - low) * u, the arithmetic of numpy's Generator.uniform, with
# high - low written out; the states are those of rng.uniform draws.
def _rigid_sampler(draw) -> tuple:
    # Attitudes I + U, U uniform in [-0.5, 0.5]^(3x3), near (but not on) the
    # rotation group with positive determinant, then angular velocities
    # uniform in [-2, 2]^3. (high - low = 1 for U, so the product is exact.)
    while True:
        r00, r01, r02, r10, r11, r12, r20, r21, r22 = draw(9)
        u01, u02, u10 = -0.5 + r01, -0.5 + r02, -0.5 + r10
        u12, u20, u21 = -0.5 + r12, -0.5 + r20, -0.5 + r21
        a00, a11, a22 = 1.0 + (-0.5 + r00), 1.0 + (-0.5 + r11), 1.0 + (-0.5 + r22)
        det = (a00 * (a11 * a22 - u12 * u21) - u01 * (u10 * a22 - u12 * u20)
               + u02 * (u10 * u21 - a11 * u20))
        if det > 1e-3:
            break
    w0, w1, w2 = draw(3)
    return (a00, u01, u02, u10, a11, u12, u20, u21, a22,
            -2.0 + 4.0 * w0, -2.0 + 4.0 * w1, -2.0 + 4.0 * w2)


def _orbital_sampler(draw, r_min: float = 0.2) -> tuple:
    # Positions uniform in [-2, 2]^3 with |x| >= 0.2, then velocities uniform
    # in [-1.5, 1.5]^3; a state with |x| < r_min is drawn again from the start.
    while True:
        u0, u1, u2 = draw(3)
        x0, x1, x2 = -2.0 + 4.0 * u0, -2.0 + 4.0 * u1, -2.0 + 4.0 * u2
        r = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2)
        if r >= 0.2:
            u0, u1, u2 = draw(3)
            if r >= r_min:
                return (x0, x1, x2, -1.5 + 3.0 * u0, -1.5 + 3.0 * u1, -1.5 + 3.0 * u2)


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
        sampler=_rigid_sampler,
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
        sampler=_orbital_sampler,
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
        sampler=lambda draw: _orbital_sampler(draw, r_min=0.25),  # off the repulsive core
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
