"""Small helpers shared by all systems.

``dot`` and ``norm`` work on 3-vectors of Python floats, the form of the
systems' parameter vectors. ``radius`` serves the central-force kernels,
which take a state's components as Python floats, and
``position_acceleration`` gives those systems their ``accel``.
"""

import math

from .errors import DomainError

# Positions closer to the origin than this are outside the central-force domain.
ORIGIN_RADIUS = 1e-12


def dot(u, v) -> float:
    """u . v for two 3-vectors of floats, summed in component order."""
    u0, u1, u2 = u
    v0, v1, v2 = v
    return u0 * v0 + u1 * v1 + u2 * v2


def norm(v) -> float:
    return math.sqrt(dot(v, v))


def radius(r2: float) -> float:
    """|x| from the float |x|^2, rejecting positions at the origin."""
    r = math.sqrt(r2)
    if r < ORIGIN_RADIUS:
        raise DomainError(f"position radius {r:.3e} below {ORIGIN_RADIUS:.0e}")
    return r


def position_acceleration(field):
    """``accel(p, q)``: the velocity part of ``field(p, s)`` at the position
    components q and zero velocity, the acceleration of a central force
    (for Stormer-Verlet stepping). It calls the ``field`` it was given, so
    a wrapper set on a module's ``field`` in place (as perfbench/tracer.py
    sets) counts only outside calls."""

    def accel(p, q):
        return field(p, (*q, 0.0, 0.0, 0.0))[3:]

    return accel
