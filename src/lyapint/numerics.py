"""Small helpers shared by all systems.

``dot`` and ``norm`` work on 3-vectors of Python floats, the form of the
systems' parameter vectors. ``column_dot`` and ``radius`` serve the system
kernels and their callers, which are written over state components: Python
floats for one state, shape-(N,) columns for a block. The module does not
import numpy: ``radius`` tests for a float and imports it only for a column.
``position_acceleration`` gives the central-force systems their ``accel``.
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


def column_dot(a, b):
    """<a_i, b_i> for each state i of a block given as two sequences of columns.

    The columns are arrays of shape (N,), as a kernel returns them for a
    block's columns; the products are summed in column order.
    """
    out = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        out += x * y
    return out


def radius(r2):
    """|x| from |x|^2, rejecting positions at the origin.

    ``r2`` is a float (one state) or a column of shape (N,) (a block); a block
    with any radius below ORIGIN_RADIUS is rejected as a whole.
    """
    if isinstance(r2, float):
        r = math.sqrt(r2)
        if r < ORIGIN_RADIUS:
            raise DomainError(f"position radius {r:.3e} below {ORIGIN_RADIUS:.0e}")
        return r
    import numpy as np

    r = np.sqrt(r2)
    inside = r < ORIGIN_RADIUS
    if inside.any():
        i = int(inside.argmax())
        raise DomainError(
            f"position radius {r[i]:.3e} of batch state {i} below {ORIGIN_RADIUS:.0e}")
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
