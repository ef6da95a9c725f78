"""Fixed-size vector/matrix primitives shared by all systems.

Everything works on plain float64 numpy arrays: 3-vectors of shape (3,)
and 3x3 matrices of shape (3, 3), stored row-major. The helpers here are
deliberately scalar-unrolled; they sit inside tight integration loops.
"""

import math

import numpy as np

I3 = np.eye(3)


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
