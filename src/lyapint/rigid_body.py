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
from functools import partial

import numpy as np

from .feedback import FeedbackSpec, FirstIntegralMap
from .numerics import I3, componentwise, components, frobenius_norm

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
BENCHMARK_STEP = 1e-4

GAIN_NAMES = ("k0", "k1", "k2")
CONSTANTS = ("inertia",)
DRIFT_NAMES = ("dE", "dPi", "so3dev", "V")
PROJECTION_TOL = 1e-4


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


def setup(initial_state, gains, inertia=BENCHMARK_INERTIA):
    """Params (gains (k0, k1, k2), targets (E0, pi0) from the start) and the
    start state; None starts at R = identity, Omega = (1,1,1)."""
    s0 = (pack(I3, BENCHMARK_OMEGA0) if initial_state is None
          else np.asarray(initial_state, dtype=float))
    R0, W0 = unpack(s0)
    return RigidBodyParams.from_initial(inertia, R0, W0, *gains), s0


def _defect_and_integrals(inertia: tuple, v) -> tuple:
    """The entries d00, d01, d02, d11, d12, d22 of the symmetric R^T R - I,
    then E and pi, at the state components v, as ten components."""
    r00, r01, r02, r10, r11, r12, r20, r21, r22, w0, w1, w2 = v
    i0, i1, i2 = inertia
    m0, m1, m2 = i0 * w0, i1 * w1, i2 * w2
    return (r00 * r00 + r10 * r10 + r20 * r20 - 1.0,
            r00 * r01 + r10 * r11 + r20 * r21,
            r00 * r02 + r10 * r12 + r20 * r22,
            r01 * r01 + r11 * r11 + r21 * r21 - 1.0,
            r01 * r02 + r11 * r12 + r21 * r22,
            r02 * r02 + r12 * r12 + r22 * r22 - 1.0,
            0.5 * (w0 * m0 + w1 * m1 + w2 * m2),
            r00 * m0 + r01 * m1 + r02 * m2,
            r10 * m0 + r11 * m1 + r12 * m2,
            r20 * m0 + r21 * m1 + r22 * m2)


def invariant_components(inertia: tuple, s) -> tuple:
    """(E, pi, ||R^T R - I||^2) at s as five Python floats: E, pi0, pi1, pi2, defect_sq.

    ``inertia`` is the three principal moments as floats. With
    ``_defect_and_integrals`` the one source of the rigid-body integrals: the
    kernels below, the integral map, the target values (E0, pi0) and the
    drift metrics all evaluate these expressions.
    """
    d00, d01, d02, d11, d12, d22, E, q0, q1, q2 = _defect_and_integrals(inertia, components(s))
    return (E, q0, q1, q2,
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

    ``feedback.generic_gradient``, built from ``integral_map``'s ``eval``
    and ``jacobian``, is the oracle it is checked against. E, pi and the
    defect repeat the expressions of ``invariant_components`` inline, so the
    gradient is exactly zero at the state the targets came from.
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


def field(p: RigidBodyParams, s):
    """Original dynamics (R hat(Omega), Iinv((I Omega) x Omega)).

    Takes a tuple of floats, a state of shape (12,) or a batch of shape (N, 12).
    """
    return componentwise(_field_components, p, s)


def integrals(p: RigidBodyParams, s: np.ndarray):
    """Kinetic energy E and spatial angular momentum vector pi."""
    E, q0, q1, q2, _ = invariant_components(p._inertia, s)
    return E, np.array((q0, q1, q2))


def _lyapunov_of(p: RigidBodyParams, integrals) -> float:
    """V from the integrals (E, pi, defect) that ``invariant_components`` gives."""
    E, q0, q1, q2, defect_sq = integrals
    E0, t0, t1, t2 = p._target
    dE = E - E0
    d0, d1, d2 = q0 - t0, q1 - t1, q2 - t2
    return (0.25 * p.k0 * defect_sq + 0.5 * p.k1 * dE * dE
            + 0.5 * p.k2 * (d0 * d0 + d1 * d1 + d2 * d2))


def lyapunov(p: RigidBodyParams, s) -> float:
    return _lyapunov_of(p, invariant_components(p._inertia, s))


def drift_metrics(p: RigidBodyParams, s0):
    """``drift(s)``: |E - E(s0)|, |pi - pi(s0)|, ||R^T R - I|| and V at a
    state, from one ``invariant_components`` call on its floats."""
    inertia = p._inertia
    E_start, p0, p1, p2, _ = invariant_components(inertia, s0)

    def drift(s):
        integrals = invariant_components(inertia, s)
        E, q0, q1, q2, defect_sq = integrals
        u0, u1, u2 = q0 - p0, q1 - p1, q2 - p2
        return {
            "dE": abs(E - E_start),
            "dPi": math.sqrt(u0 * u0 + u1 * u1 + u2 * u2),
            "so3dev": math.sqrt(defect_sq),
            "V": _lyapunov_of(p, integrals),
        }

    return drift


def lyapunov_gradient(p: RigidBodyParams, s):
    """Closed-form gradient of V (see ``_gradient_components``).

    Takes a tuple of floats, a state of shape (12,) or a batch of shape (N, 12).
    """
    return componentwise(_gradient_components, p, s)


def _modified_field_components(p: RigidBodyParams, v) -> tuple:
    return tuple(map(operator.sub, _field_components(p, v), _gradient_components(p, v)))


def modified_field(p: RigidBodyParams, s):
    """Feedback dynamics: original field minus the Lyapunov gradient.

    Both terms come from the kernels of ``field`` and
    ``lyapunov_gradient``, so the result is bit-identical to their
    difference. Takes a tuple of floats, a state (12,) or a batch (N, 12).
    """
    return componentwise(_modified_field_components, p, s)


def gain_bound(p: RigidBodyParams) -> float:
    """Upper bound on admissible sublevel values c:

    min(k0/4, k1 |E0| / 2, k2 |pi0|^2 / 2).
    """
    return min(
        0.25 * p.k0,
        0.5 * p.k1 * abs(p.E0),
        0.5 * p.k2 * float(p.pi0 @ p.pi0),
    )


def period(p: RigidBodyParams) -> float:
    """The benchmark's angular-velocity period, whatever the parameters."""
    return BENCHMARK_OMEGA_PERIOD


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


def _integral_values(p: RigidBodyParams, v) -> tuple:
    """(vec(R^T R - I), E, pi) at the state components v, as 13 components."""
    d00, d01, d02, d11, d12, d22, E, q0, q1, q2 = _defect_and_integrals(p._inertia, v)
    return d00, d01, d02, d01, d11, d12, d02, d12, d22, E, q0, q1, q2


def _jacobian_rows(p: RigidBodyParams, v) -> tuple:
    """Jacobian of (vec(R^T R - I), E, pi) at the state components v, as 13
    rows of 12 components.

    Row 3i+j, the gradient of (R^T R)_ij, holds R_aj at R_ai and R_ai at R_aj
    (2 R_ai where i = j); row 9 is (0, I Omega); row 10+i holds I Omega at
    row i of R and (R_i0 I0, R_i1 I1, R_i2 I2) at Omega.
    """
    r00, r01, r02, r10, r11, r12, r20, r21, r22, w0, w1, w2 = v
    i0, i1, i2 = p._inertia
    m0, m1, m2 = i0 * w0, i1 * w1, i2 * w2
    z = 0.0
    d01 = (r01, r00, z, r11, r10, z, r21, r20, z, z, z, z)
    d02 = (r02, z, r00, r12, z, r10, r22, z, r20, z, z, z)
    d12 = (z, r02, r01, z, r12, r11, z, r22, r21, z, z, z)
    return (
        (2.0 * r00, z, z, 2.0 * r10, z, z, 2.0 * r20, z, z, z, z, z), d01, d02,
        d01, (z, 2.0 * r01, z, z, 2.0 * r11, z, z, 2.0 * r21, z, z, z, z), d12,
        d02, d12, (z, z, 2.0 * r02, z, z, 2.0 * r12, z, z, 2.0 * r22, z, z, z),
        (z, z, z, z, z, z, z, z, z, m0, m1, m2),
        (m0, m1, m2, z, z, z, z, z, z, r00 * i0, r01 * i1, r02 * i2),
        (z, z, z, m0, m1, m2, z, z, z, r10 * i0, r11 * i1, r12 * i2),
        (z, z, z, z, z, z, m0, m1, m2, r20 * i0, r21 * i1, r22 * i2),
    )


def integral_map(p: RigidBodyParams) -> FirstIntegralMap:
    """Stacked map (vec(R^T R - I), E, pi) of dimension 13.

    ``eval`` and ``jacobian`` take a tuple of floats, a state of shape (12,)
    or a tuple of a block's columns (see ``feedback.FirstIntegralMap``).
    """
    return FirstIntegralMap(
        dim_state=DIM, dim_values=13,
        eval=partial(componentwise, _integral_values, p),
        jacobian=partial(componentwise, _jacobian_rows, p),
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
