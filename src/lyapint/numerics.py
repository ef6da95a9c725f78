"""Fixed-size vector/matrix primitives shared by all systems.

The vector helpers work on plain float64 numpy arrays: 3-vectors of shape
(3,) and 3x3 matrices of shape (3, 3), stored row-major. ``componentwise``
and ``radius`` serve the system kernels, which are written over state
components: Python floats for one state, shape-(N,) arrays for a batch.
"""

import math

import numpy as np

from .errors import DomainError

I3 = np.eye(3)

# Positions closer to the origin than this are outside the central-force domain.
ORIGIN_RADIUS = 1e-12


def hat(omega) -> np.ndarray:
    """Skew-symmetric matrix of a 3-vector; hat(u) @ v equals cross(u, v)."""
    w0, w1, w2 = omega
    return np.array(((0.0, -w2, w1), (w2, 0.0, -w0), (-w1, w0, 0.0)))


def cross(u, v) -> np.ndarray:
    u0, u1, u2 = u
    v0, v1, v2 = v
    return np.array((u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0))


def norm(v) -> float:
    return math.sqrt(float(np.dot(v, v)))


def frobenius_norm(a) -> float:
    """Matrix 2-norm sqrt(trace(A^T A)), i.e. the root of the entry-square sum."""
    return math.sqrt(float(np.sum(a * a)))


def componentwise(kernel, p, s: np.ndarray) -> np.ndarray:
    """``kernel(p, components)`` on one state of shape (dim,) or a batch of shape (N, dim).

    One state is handed to the kernel as dim Python floats and gives an array
    of shape (m,); a batch as its dim columns, arrays of shape (N,), and gives
    shape (N, m). The kernel applies the same IEEE operations in the same
    order either way, so row i of a batch result equals the result for state
    i bit for bit.
    """
    if s.ndim == 1:
        return np.array(kernel(p, s.tolist()))
    return np.array(kernel(p, s.T)).T


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
