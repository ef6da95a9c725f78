"""Uniform flat-vector view of the shipped systems.

A ``SystemModel`` bundles everything the drift diagnostics, validators and
the experiment runner need: the original and feedback vector fields, the
stacked integral map, the params (constants, gains ``K``, targets ``f0``),
drift metrics relative to a run's initial state, and a ``SamplingRule``
that ``sample_state`` applies to draw random states for property checks.
``make_system`` builds one from the system's module, which ``module``
imports on first use: a process loads only the systems it builds.
"""

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, NamedTuple, Optional, Sequence

from .feedback import FirstIntegralMap, lyapunov_value

# The shipped systems, each stated once by the module ``lyapint.<name>``:
# ``setup``, whose params hold and check the constants, the gain diagonal
# ``K`` and the targets ``f0``, the kernels, ``period``, ``gain_bound`` and
# the names ``make_system`` reads. ``make_system`` composes the model from
# the kernels; the module binds the three that ``feedback.derive_system``
# gives, which the model calls through the module.
SYSTEM_NAMES = ("rigid_body", "kepler", "perturbed_kepler")


def module(name: str):
    """The module of the system ``name``, imported on first use; a
    ValueError for a name not in SYSTEM_NAMES."""
    if name not in SYSTEM_NAMES:
        raise ValueError(f"unknown system {name!r}; choose from {SYSTEM_NAMES}")
    # the import statement's own machinery, which -X importtime reports
    # (importlib.import_module bypasses it)
    return __import__(f"{__package__}.{name}", fromlist=("setup",))


class SamplingRule(NamedTuple):
    """How a system draws one random state from standard uniforms in [0, 1).

    A try takes ``width`` uniforms, ``u``: ``accept(u)`` says whether it
    gives the state ``state(u)``. A try that is not accepted is drawn again
    with the next ``width`` uniforms. Both functions take the uniforms as
    Python floats.
    """

    width: int
    accept: Callable[[Sequence], object]
    state: Callable[[Sequence], tuple]


@dataclass(frozen=True)
class SystemModel:
    """One shipped system: its fields, integrals, metrics and state sampler.

    A single state is a tuple of Python floats: ``initial_state``, what
    ``sample_state`` draws, what the fields, ``lyapunov``, ``drift_metrics``,
    ``accel`` and ``splitting_step`` take, and what the fields, ``accel`` and
    ``splitting_step`` give.

    ``params`` states the system's constants, gain diagonal ``params.K`` and
    targets ``params.f0`` once; V, the oracle and the projection read them.
    The targets are the start's first integrals, f(x0) of the orbital
    systems; the rigid body's nine ``R^T R - I`` targets are exact zeros,
    not the start's defect, so V and its gradient vanish at the start only
    where its attitude is exactly orthogonal in floats.
    ``period`` is ``period_of()``, the module's ``period(params,
    initial_state)``: the period of the start's motion, inf where it has
    none. It is computed when first read, and a ``run`` never reads it.

    ``make_system`` composes the rest from the module's kernels.
    ``drift_metrics(s)`` gives the drift columns at a state, a tuple of
    floats named by ``drift_names`` (V first, as in the CSV), against the
    integrals of ``initial_state``. ``field_and_drift(s)`` gives
    ``(modified_field(s), drift_metrics(s))`` bit for bit from one call of
    the module's fused ``_feedback``, or raises where either raises; a
    run's feedback step takes its first stage from it (see
    ``cli.DriftObserver``). ``integral_map`` is the stacked map f of the
    module's ``_map_values`` and ``_jacobian_rows``.

    ``sampler`` is the system's ``SamplingRule``, and ``sample_state(rng)``
    draws one state by it.
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
    drift_metrics: Callable[[tuple], tuple]
    field_and_drift: Callable[[tuple], tuple]
    sampler: SamplingRule
    gain_bound: float
    period_of: Callable[[], float]
    projection_tol: float
    accel: Optional[Callable[[tuple], tuple]] = None
    splitting_step: Optional[Callable[[tuple, float], tuple]] = None

    @cached_property
    def period(self) -> float:
        return self.period_of()

    def sample_state(self, rng) -> tuple:
        """One random state: the rule on ``width`` successive ``rng.random()``
        draws per try. ``rng`` is a ``random.Random``, or a numpy
        ``Generator``, whose draws are those of ``rng.random(width)``."""
        rule = self.sampler
        draw, width = rng.random, range(rule.width)
        while True:
            u = [draw() for _ in width]
            if rule.accept(u):
                return rule.state(u)


# The rules map a standard uniform u to [low, high) as low + (high - low) * u,
# the arithmetic of ``random.uniform``, with high - low written out.
def _rigid_attitude(u) -> tuple:
    # I + U, U uniform in [-0.5, 0.5]^(3x3): high - low = 1, so the product is exact
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = u[:9]
    return (1.0 + (-0.5 + r00), -0.5 + r01, -0.5 + r02,
            -0.5 + r10, 1.0 + (-0.5 + r11), -0.5 + r12,
            -0.5 + r20, -0.5 + r21, 1.0 + (-0.5 + r22))


def _rigid_accept(u):
    # an attitude near (but not on) the rotation group with positive determinant
    a00, u01, u02, u10, a11, u12, u20, u21, a22 = _rigid_attitude(u)
    det = (a00 * (a11 * a22 - u12 * u21) - u01 * (u10 * a22 - u12 * u20)
           + u02 * (u10 * u21 - a11 * u20))
    return det > 1e-3


def _rigid_state(u) -> tuple:
    # and angular velocities uniform in [-2, 2]^3
    w0, w1, w2 = u[9:]
    return (*_rigid_attitude(u), -2.0 + 4.0 * w0, -2.0 + 4.0 * w1, -2.0 + 4.0 * w2)


def _position(u) -> tuple:
    # positions uniform in [-2, 2]^3
    u0, u1, u2 = u[:3]
    return -2.0 + 4.0 * u0, -2.0 + 4.0 * u1, -2.0 + 4.0 * u2


def _orbital_rule(r_min: float) -> SamplingRule:
    # then a velocity uniform in [-1.5, 1.5]^3; a state is kept where |x|^2 >= r_min^2
    r_min_sq = r_min * r_min

    def accept(u):
        x0, x1, x2 = _position(u)
        return x0 * x0 + x1 * x1 + x2 * x2 >= r_min_sq

    def state(u):
        w0, w1, w2 = u[3:]
        return (*_position(u), -1.5 + 3.0 * w0, -1.5 + 3.0 * w1, -1.5 + 3.0 * w2)

    return SamplingRule(width=6, accept=accept, state=state)


_SAMPLERS = {
    "rigid_body": SamplingRule(width=12, accept=_rigid_accept, state=_rigid_state),
    "kepler": _orbital_rule(0.2),
    "perturbed_kepler": _orbital_rule(0.25),  # off the repulsive core
}


def make_system(name: str, initial_state=None, gains=None, **constants) -> SystemModel:
    """The system ``name``, started at ``initial_state`` (default: its benchmark start).

    ``gains`` maps gain names (the module's ``GAIN_NAMES``) to values and
    ``constants`` are the module's ``CONSTANTS``; what is not given takes
    the benchmark value. The targets f(x0) are the start state's integrals.
    A name the system does not take is a ValueError here; the params check
    the values.

    The model is composed here from the module's kernels ``_feedback``,
    ``_values`` (evaluated once at the start for the drift rows),
    ``_drift_row``, ``_map_values`` and ``_jacobian_rows``.
    """
    m = module(name)
    gains = gains or {}
    for kind, given, names in (("gain", gains, m.GAIN_NAMES),
                               ("constant", constants, m.CONSTANTS)):
        for key in given:
            if key not in names:
                raise ValueError(f"unknown {kind} {key!r} for system {name!r}; it takes {names}")
    p, s0 = m.setup(initial_state,
                    tuple(gains.get(k, d) for k, d in zip(m.GAIN_NAMES, m.BENCHMARK_GAINS)),
                    **constants)
    values, feedback, drift_row = m._values, m._feedback, m._drift_row
    K, f0, start = p.K, p.f0, values(p, s0)

    def drift(vals):
        return drift_row(start, vals, lyapunov_value(K, f0, vals))

    def drift_metrics(s):
        return drift(values(p, s))

    def field_and_drift(s):
        field, _, vals = feedback(p, s)
        return field, drift(vals)

    # each call of the four kernels below looks up the module function, so
    # wrapping it in place (as perfbench/tracer.py does) sees every call
    return SystemModel(
        name=name,
        dim=m.DIM,
        params=p,
        field=lambda s: m.field(p, s),
        modified_field=lambda s: m.modified_field(p, s),
        gradient=lambda s: m.lyapunov_gradient(p, s),
        lyapunov=lambda s: m.lyapunov(p, s),
        integral_map=FirstIntegralMap(dim_state=m.DIM, dim_values=len(f0),
                                      eval=partial(m._map_values, p),
                                      jacobian=partial(m._jacobian_rows, p)),
        initial_state=s0,
        state_names=m.STATE_NAMES,
        drift_names=m.DRIFT_NAMES,
        drift_metrics=drift_metrics,
        field_and_drift=field_and_drift,
        sampler=_SAMPLERS[name],
        gain_bound=m.gain_bound(p),
        period_of=lambda: m.period(p, s0),
        projection_tol=m.PROJECTION_TOL,
        accel=(lambda q: m.accel(p, q)) if hasattr(m, "accel") else None,
        splitting_step=((lambda s, h: m.splitting_step(p, s, h))
                        if hasattr(m, "splitting_step") else None),
    )
