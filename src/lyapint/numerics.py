"""Fixed-size vector/matrix primitives shared by all systems.

The vector helpers work on plain float64 numpy arrays: 3-vectors of shape
(3,) and 3x3 matrices of shape (3, 3), stored row-major. ``componentwise``,
``column_dot`` and ``radius`` serve the system kernels and their callers,
which are written over state components: Python floats for one state,
shape-(N,) arrays for a batch.
"""

import math

import numpy as np

from .errors import DomainError

I3 = np.eye(3)

# Positions closer to the origin than this are outside the central-force domain.
ORIGIN_RADIUS = 1e-12


def cross(u, v) -> np.ndarray:
    u0, u1, u2 = u
    v0, v1, v2 = v
    return np.array((u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0))


def norm(v) -> float:
    return math.sqrt(float(np.dot(v, v)))


def frobenius_norm(a) -> float:
    """Matrix 2-norm sqrt(trace(A^T A)), i.e. the root of the entry-square sum."""
    return math.sqrt(float(np.sum(a * a)))


def components(s) -> tuple:
    """One state as Python floats: an array (dim,) as a tuple by ``tolist``, a tuple or list as it is."""
    return tuple(s.tolist()) if isinstance(s, np.ndarray) else s


def componentwise(kernel, p, s):
    """``kernel(p, components)`` on a tuple of components (giving a tuple), a state (dim,) or a batch.

    A state of shape (dim,) goes to the kernel as dim Python floats and gives
    shape (m,); a batch of shape (N, dim) as its dim columns, arrays of shape
    (N,), and gives a C-contiguous (N, m). A tuple goes to the kernel as it
    is: dim floats give m floats, and a batch's dim columns give its m result
    columns without stacking them. The kernel applies the same IEEE
    operations in the same order either way, so row i of a batch result equals
    the result for state i bit for bit, and so does a reduction over the row.
    """
    if isinstance(s, tuple):
        return kernel(p, s)
    if s.ndim == 1:
        return np.array(kernel(p, s.tolist()))
    return np.stack(kernel(p, s.T), axis=1)


def column_dot(a, b):
    """<a_i, b_i> for each state i of a batch given as two sequences of columns.

    The columns are arrays of shape (N,), as a kernel returns them for a
    tuple of a batch's columns; the products are summed in column order.
    """
    out = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        out += x * y
    return out


def radius(r2):
    """|x| from |x|^2, rejecting positions at the origin.

    ``r2`` is a float (one state) or an array of shape (N,) (a batch); a batch
    with any radius below ORIGIN_RADIUS is rejected as a whole.
    """
    if not isinstance(r2, np.ndarray):
        r = math.sqrt(r2)
        if r < ORIGIN_RADIUS:
            raise DomainError(f"position radius {r:.3e} below {ORIGIN_RADIUS:.0e}")
        return r
    r = np.sqrt(r2)
    inside = r < ORIGIN_RADIUS
    if inside.any():
        i = int(inside.argmax())
        raise DomainError(
            f"position radius {r[i]:.3e} of batch state {i} below {ORIGIN_RADIUS:.0e}")
    return r
