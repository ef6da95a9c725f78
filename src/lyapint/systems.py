"""Uniform flat-vector view of the shipped systems.

A ``SystemModel`` bundles everything the drift diagnostics, validators and
the experiment runner need: the original and feedback vector fields, the
stacked integral map, the params (constants, gains ``K``, targets ``f0``),
drift metrics relative to a run's initial state, and a sampler for
randomized property checks. ``make_system`` builds one from the system's
module in ``MODULES``.
"""

from __future__ import annotations  # np.random.Generator names numpy without importing it

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from . import kepler, perturbed_kepler, rigid_body
from .feedback import FirstIntegralMap

if TYPE_CHECKING:
    import numpy as np

# Each module states its system once: ``setup``, whose params hold and check
# the constants, the gain diagonal ``K`` and the targets ``f0``, the kernels,
# ``drift_metrics``, ``period``, ``gain_bound`` and the names ``make_system`` reads.
MODULES = {"rigid_body": rigid_body, "kepler": kepler, "perturbed_kepler": perturbed_kepler}
SYSTEM_NAMES = tuple(MODULES)

# Uniforms per generator call in SystemModel.sample_blocks: a few blocks of
# states' worth, so that numpy's per-call cost vanishes next to the kernel.
SAMPLE_REFILL = 4096


@dataclass(frozen=True)
class SystemModel:
    """One shipped system: its fields, integrals, metrics and state sampler.

    A single state is a tuple of Python floats: ``initial_state``, what
    ``sample_state`` draws, what the fields, ``lyapunov``, ``drift_metrics``,
    ``accel`` and ``splitting_step`` take, and what the fields, ``accel`` and
    ``splitting_step`` give. The fields, ``accel``, the gradient and the
    integral map also take a block's columns, a tuple of arrays (N,), and
    give columns.

    ``params`` states the system's constants, gain diagonal ``params.K`` and
    targets ``params.f0 = f(x0)`` once; V, the oracle and the projection read them.

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
    field: Callable[[tuple], tuple]
    modified_field: Callable[[tuple], tuple]
    gradient: Callable[[tuple], tuple]
    lyapunov: Callable[[tuple], float]
    integral_map: FirstIntegralMap
    initial_state: tuple
    state_names: tuple
    drift_names: tuple
    drift_metrics: Callable[[tuple], dict]
    sampler: Callable[[Callable[[int], list]], tuple]
    gain_bound: float
    period: float
    projection_tol: float
    accel: Optional[Callable[[tuple], tuple]] = None
    splitting_step: Optional[Callable[[tuple, float], tuple]] = None

    def sample_state(self, rng: np.random.Generator) -> tuple:
        """One random state, drawing one ``rng.random(k)`` per kernel request."""
        return self.sampler(lambda k: rng.random(k).tolist())

    def sample_blocks(self, rng: np.random.Generator, n_samples: int, block: int):
        """The first n_samples states of ``sample_state`` on rng, in blocks.

        Yields arrays of ``block`` rows (fewer in the last), one at a time;
        the uniforms come from one buffer that ``_buffered_draw`` refills.
        """
        import numpy as np

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


_SAMPLERS = {
    "rigid_body": _rigid_sampler,
    "kepler": _orbital_sampler,
    "perturbed_kepler": lambda draw: _orbital_sampler(draw, r_min=0.25),  # off the repulsive core
}


def make_system(name: str, initial_state=None, gains=None, **constants) -> SystemModel:
    """The system ``name``, started at ``initial_state`` (default: its benchmark start).

    ``gains`` maps gain names (the module's ``GAIN_NAMES``) to values and
    ``constants`` are the module's ``CONSTANTS``; what is not given takes
    the benchmark value. The targets f(x0) are the start state's integrals.
    A name the system does not take is a ValueError here; the params check
    the values.
    """
    try:
        m = MODULES[name]
    except KeyError:
        raise ValueError(f"unknown system {name!r}; choose from {SYSTEM_NAMES}") from None
    gains = gains or {}
    for kind, given, names in (("gain", gains, m.GAIN_NAMES),
                               ("constant", constants, m.CONSTANTS)):
        for key in given:
            if key not in names:
                raise ValueError(f"unknown {kind} {key!r} for system {name!r}; it takes {names}")
    p, s0 = m.setup(initial_state,
                    tuple(gains.get(k, d) for k, d in zip(m.GAIN_NAMES, m.BENCHMARK_GAINS)),
                    **constants)
    # each call looks up the module function, so wrapping it in place
    # (as perfbench/tracer.py does) sees every call
    return SystemModel(
        name=name,
        dim=m.DIM,
        params=p,
        field=lambda s: m.field(p, s),
        modified_field=lambda s: m.modified_field(p, s),
        gradient=lambda s: m.lyapunov_gradient(p, s),
        lyapunov=lambda s: m.lyapunov(p, s),
        integral_map=m.integral_map(p),
        initial_state=s0,
        state_names=m.STATE_NAMES,
        drift_names=m.DRIFT_NAMES,
        drift_metrics=m.drift_metrics(p, s0),
        sampler=_SAMPLERS[name],
        gain_bound=m.gain_bound(p),
        period=m.period(p),
        projection_tol=m.PROJECTION_TOL,
        accel=(lambda q: m.accel(p, q)) if hasattr(m, "accel") else None,
        splitting_step=((lambda s, h: m.splitting_step(p, s, h))
                        if hasattr(m, "splitting_step") else None),
    )
