"""Free rigid body, extended from SO(3) x R^3 to all 3x3 matrices.

Flat state layout: s[0:9] holds the attitude matrix R row-major, s[9:12]
the body angular velocity Omega. The original dynamics are

    R' = R hat(Omega),    Omega' = Iinv ((I Omega) x Omega)

with I the diagonal matrix of principal moments. Kinetic energy
E = 0.5 Omega^T I Omega and spatial angular momentum pi = R I Omega are
first integrals; together with the orthogonality defect R^T R - I they
define the stabilizing function

    V = k0/4 ||R^T R - I||^2 + k1/2 (E - E0)^2 + k2/2 |pi - pi0|^2.
"""

import math
import operator
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .feedback import FeedbackSpec, FirstIntegralMap
from .numerics import I3, componentwise, frobenius_norm

DIM = 12

STATE_NAMES = (
    "r00", "r01", "r02", "r10", "r11", "r12", "r20", "r21", "r22",
    "w0", "w1", "w2",
)

# Moments, initial condition, and gains of the benchmark run.
BENCHMARK_INERTIA = (3.0, 2.0, 1.0)
BENCHMARK_OMEGA0 = (1.0, 1.0, 1.0)
BENCHMARK_GAINS = (50.0, 100.0, 50.0)
# Approximate period of the body angular velocity for the benchmark setup.
BENCHMARK_OMEGA_PERIOD = 6.4227


@dataclass(frozen=True)
class RigidBodyParams:
    """Principal moments, feedback gains and target integral values."""

    inertia: np.ndarray
    k0: float
    k1: float
    k2: float
    E0: float
    pi0: np.ndarray
    # The moments and (E0, pi0) as Python floats, read by the float kernels
    # on every call.
    _inertia: tuple = dataclass_field(init=False, repr=False, compare=False)
    _target: tuple = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "inertia", np.asarray(self.inertia, dtype=float))
        object.__setattr__(self, "pi0", np.asarray(self.pi0, dtype=float))
        if self.inertia.shape != (3,) or not np.all(self.inertia > 0.0):
            raise ValueError("inertia must be three positive principal moments")
        if min(self.k0, self.k1, self.k2) <= 0.0:
            raise ValueError("gains must be positive")
        if self.E0 <= 0.0:
            raise ValueError("target energy must be positive")
        if float(self.pi0 @ self.pi0) == 0.0:
            raise ValueError("target angular momentum must be nonzero")
        object.__setattr__(self, "_inertia", tuple(self.inertia.tolist()))
        object.__setattr__(self, "_target", (float(self.E0), *self.pi0.tolist()))

    @classmethod
    def from_initial(cls, inertia, R0, Omega0, k0, k1, k2) -> "RigidBodyParams":
        """Build params with (E0, pi0) evaluated at the initial condition."""
        inertia = np.asarray(inertia, dtype=float)
        E0, q0, q1, q2, _ = invariant_components(tuple(inertia.tolist()), pack(R0, Omega0))
        return cls(
            inertia=inertia,
            k0=float(k0), k1=float(k1), k2=float(k2),
            E0=E0, pi0=(q0, q1, q2),
        )


def pack(R, Omega) -> np.ndarray:
    s = np.empty(DIM)
    s[:9] = np.asarray(R, dtype=float).reshape(9)
    s[9:] = Omega
    return s


def unpack(s):
    return s[:9].reshape(3, 3), s[9:]


def benchmark_setup(k0=None, k1=None, k2=None, inertia=None):
    """Benchmark parameters and initial state: I = diag(3,2,1), R = identity, Omega = (1,1,1)."""
    gains = (
        BENCHMARK_GAINS[0] if k0 is None else k0,
        BENCHMARK_GAINS[1] if k1 is None else k1,
        BENCHMARK_GAINS[2] if k2 is None else k2,
    )
    inertia = BENCHMARK_INERTIA if inertia is None else inertia
    params = RigidBodyParams.from_initial(inertia, I3, BENCHMARK_OMEGA0, *gains)
    return params, pack(I3, BENCHMARK_OMEGA0)


def invariant_components(inertia: tuple, s: np.ndarray) -> tuple:
    """(E, pi, ||R^T R - I||^2) at s as five Python floats: E, pi0, pi1, pi2, defect_sq.

    ``inertia`` is the three principal moments as floats. The one source of
    the rigid-body integrals: the kernels below, the target values (E0, pi0)
    and the drift metrics all evaluate these expressions.
    """
    r00, r01, r02, r10, r11, r12, r20, r21, r22, w0, w1, w2 = s.tolist()
    i0, i1, i2 = inertia
    m0, m1, m2 = i0 * w0, i1 * w1, i2 * w2
    d00 = r00 * r00 + r10 * r10 + r20 * r20 - 1.0
    d11 = r01 * r01 + r11 * r11 + r21 * r21 - 1.0
    d22 = r02 * r02 + r12 * r12 + r22 * r22 - 1.0
    d01 = r00 * r01 + r10 * r11 + r20 * r21
    d02 = r00 * r02 + r10 * r12 + r20 * r22
    d12 = r01 * r02 + r11 * r12 + r21 * r22
    return (0.5 * (w0 * m0 + w1 * m1 + w2 * m2),
            r00 * m0 + r01 * m1 + r02 * m2,
            r10 * m0 + r11 * m1 + r12 * m2,
            r20 * m0 + r21 * m1 + r22 * m2,
            d00 * d00 + d11 * d11 + d22 * d22
            + 2.0 * (d01 * d01 + d02 * d02 + d12 * d12))


def _field_components(p: RigidBodyParams, v) -> tuple:
    """(R hat(Omega), Iinv((I Omega) x Omega)) at the state components v, as 12 components.

    Row i of R hat(Omega) is row i of R crossed with Omega.
    """
    r00, r01, r02, r10, r11, r12, r20, r21, r22, w0, w1, w2 = v
    i0, i1, i2 = p._inertia
    m0, m1, m2 = i0 * w0, i1 * w1, i2 * w2
    return (
        r01 * w2 - r02 * w1, r02 * w0 - r00 * w2, r00 * w1 - r01 * w0,
        r11 * w2 - r12 * w1, r12 * w0 - r10 * w2, r10 * w1 - r11 * w0,
        r21 * w2 - r22 * w1, r22 * w0 - r20 * w2, r20 * w1 - r21 * w0,
        (m1 * w2 - m2 * w1) / i0, (m2 * w0 - m0 * w2) / i1, (m0 * w1 - m1 * w0) / i2,
    )


def _gradient_components(p: RigidBodyParams, v) -> tuple:
    """Closed-form gradient of V at the state components v, as 12 components:

    grad_R = k0 R (R^T R - I) + k2 (pi - pi0) (I Omega)^T
    grad_Omega = k1 (E - E0) I Omega + k2 I R^T (pi - pi0)

    ``integral_map``'s numpy ``jac_t`` is kept apart as the oracle it is
    checked against. E, pi and the defect repeat the expressions of
    ``invariant_components`` inline, so the gradient is exactly zero at the
    state the targets came from.
    """
    r00, r01, r02, r10, r11, r12, r20, r21, r22, w0, w1, w2 = v
    i0, i1, i2 = p._inertia
    E0, t0, t1, t2 = p._target
    m0, m1, m2 = i0 * w0, i1 * w1, i2 * w2
    d00 = r00 * r00 + r10 * r10 + r20 * r20 - 1.0
    d11 = r01 * r01 + r11 * r11 + r21 * r21 - 1.0
    d22 = r02 * r02 + r12 * r12 + r22 * r22 - 1.0
    d01 = r00 * r01 + r10 * r11 + r20 * r21
    d02 = r00 * r02 + r10 * r12 + r20 * r22
    d12 = r01 * r02 + r11 * r12 + r21 * r22
    k0, k2 = p.k0, p.k2
    e = p.k1 * (0.5 * (w0 * m0 + w1 * m1 + w2 * m2) - E0)
    q0 = k2 * (r00 * m0 + r01 * m1 + r02 * m2 - t0)
    q1 = k2 * (r10 * m0 + r11 * m1 + r12 * m2 - t1)
    q2 = k2 * (r20 * m0 + r21 * m1 + r22 * m2 - t2)
    return (
        k0 * (r00 * d00 + r01 * d01 + r02 * d02) + q0 * m0,
        k0 * (r00 * d01 + r01 * d11 + r02 * d12) + q0 * m1,
        k0 * (r00 * d02 + r01 * d12 + r02 * d22) + q0 * m2,
        k0 * (r10 * d00 + r11 * d01 + r12 * d02) + q1 * m0,
        k0 * (r10 * d01 + r11 * d11 + r12 * d12) + q1 * m1,
        k0 * (r10 * d02 + r11 * d12 + r12 * d22) + q1 * m2,
        k0 * (r20 * d00 + r21 * d01 + r22 * d02) + q2 * m0,
        k0 * (r20 * d01 + r21 * d11 + r22 * d12) + q2 * m1,
        k0 * (r20 * d02 + r21 * d12 + r22 * d22) + q2 * m2,
        e * m0 + i0 * (r00 * q0 + r10 * q1 + r20 * q2),
        e * m1 + i1 * (r01 * q0 + r11 * q1 + r21 * q2),
        e * m2 + i2 * (r02 * q0 + r12 * q1 + r22 * q2),
    )


def field(p: RigidBodyParams, s: np.ndarray) -> np.ndarray:
    """Original dynamics (R hat(Omega), Iinv((I Omega) x Omega)).

    Takes a state of shape (12,) or a batch of shape (N, 12).
    """
    return componentwise(_field_components, p, s)


def integrals(p: RigidBodyParams, s: np.ndarray):
    """Kinetic energy E and spatial angular momentum vector pi."""
    E, q0, q1, q2, _ = invariant_components(p._inertia, s)
    return E, np.array((q0, q1, q2))


def lyapunov(p: RigidBodyParams, s: np.ndarray) -> float:
    E, q0, q1, q2, defect_sq = invariant_components(p._inertia, s)
    E0, t0, t1, t2 = p._target
    dE = E - E0
    d0, d1, d2 = q0 - t0, q1 - t1, q2 - t2
    return (0.25 * p.k0 * defect_sq + 0.5 * p.k1 * dE * dE
            + 0.5 * p.k2 * (d0 * d0 + d1 * d1 + d2 * d2))


def lyapunov_gradient(p: RigidBodyParams, s: np.ndarray) -> np.ndarray:
    """Closed-form gradient of V (see ``_gradient_components``).

    Takes a state of shape (12,) or a batch of shape (N, 12).
    """
    return componentwise(_gradient_components, p, s)


def modified_field(p: RigidBodyParams, s: np.ndarray) -> np.ndarray:
    """Feedback dynamics: original field minus the Lyapunov gradient.

    Both terms come from the kernels of ``field`` and
    ``lyapunov_gradient``, so the result is bit-identical to their
    difference.
    """
    v = s.tolist()
    return np.array(list(map(operator.sub, _field_components(p, v),
                             _gradient_components(p, v))))


def gain_bound(p: RigidBodyParams) -> float:
    """Upper bound on admissible sublevel values c:

    min(k0/4, k1 |E0| / 2, k2 |pi0|^2 / 2).
    """
    return min(
        0.25 * p.k0,
        0.5 * p.k1 * abs(p.E0),
        0.5 * p.k2 * float(p.pi0 @ p.pi0),
    )


def _axis_rotation(axis: int, angle: float) -> np.ndarray:
    c = math.cos(angle)
    s = math.sin(angle)
    q = np.eye(3)
    i, j = (1, 2) if axis == 0 else (2, 0) if axis == 1 else (0, 1)
    q[i, i] = c
    q[j, j] = c
    q[i, j] = -s
    q[j, i] = s
    return q


# Symmetric factor ordering: half steps on axes 0 and 1 around a full step
# on axis 2, giving an order-2 composition of exact single-axis rotations.
_SPLIT_PLAN = ((0, 0.5), (1, 0.5), (2, 1.0), (1, 0.5), (0, 0.5))


def splitting_step(p: RigidBodyParams, s: np.ndarray, h: float) -> np.ndarray:
    """Three-rotations splitting applied to the original dynamics.

    Each factor freezes the body momentum component along one principal axis
    and flows the corresponding single-axis rotation exactly, so R stays a
    product of rotations: starting on SO(3) it remains there to roundoff.
    """
    R, W = unpack(s)
    R = R.copy()
    momentum = p.inertia * W
    for axis, frac in _SPLIT_PLAN:
        angle = (momentum[axis] / p.inertia[axis]) * (frac * h)
        q = _axis_rotation(axis, angle)
        R = R @ q
        momentum = q.T @ momentum
    return pack(R, momentum / p.inertia)


def integral_map(p: RigidBodyParams) -> FirstIntegralMap:
    """Stacked map (vec(R^T R - I), E, pi) of dimension 13."""

    def evaluate(s):
        R, W = unpack(s)
        momentum = p.inertia * W
        out = np.empty(13)
        out[:9] = (R.T @ R - I3).ravel()
        out[9] = 0.5 * float(W @ momentum)
        out[10:] = R @ momentum
        return out

    def jac_t(s, w):
        R, W = unpack(s)
        momentum = p.inertia * W
        wdef = w[:9].reshape(3, 3)
        wpi = w[10:]
        out = np.empty(DIM)
        out[:9] = (R @ (wdef + wdef.T) + np.outer(wpi, momentum)).ravel()
        out[9:] = w[9] * momentum + p.inertia * (R.T @ wpi)
        return out

    def jacobian(s):
        R, W = unpack(s)
        momentum = p.inertia * W
        rows = np.zeros((13, DIM))
        for i in range(3):
            for j in range(3):
                d = np.outer(R[:, j], I3[i]) + np.outer(R[:, i], I3[j])
                rows[3 * i + j, :9] = d.ravel()
        rows[9, 9:] = momentum
        for i in range(3):
            rows[10 + i, :9] = np.outer(I3[i], momentum).ravel()
        rows[10:, 9:] = R * p.inertia
        return rows

    return FirstIntegralMap(
        dim_state=DIM, dim_values=13,
        eval=evaluate, jacobian_transpose_apply=jac_t, jacobian=jacobian,
    )


def feedback_spec(p: RigidBodyParams) -> FeedbackSpec:
    """Gains per stacked component.

    The nine orthogonality-defect components carry k0/2 so that the
    quadratic form reproduces k0/4 ||R^T R - I||^2 exactly.
    """
    reference = np.zeros(13)
    reference[9] = p.E0
    reference[10:] = p.pi0
    gains = np.empty(13)
    gains[:9] = 0.5 * p.k0
    gains[9] = p.k1
    gains[10:] = p.k2
    return FeedbackSpec(reference=reference, gain_diag=gains)


def so3_deviation(s: np.ndarray) -> float:
    R, _ = unpack(s)
    return frobenius_norm(R.T @ R - I3)
