"""Free rigid body, extended from SO(3) x R^3 to all 3x3 matrices.

Flat state layout: s[0:9] holds the attitude matrix R row-major, s[9:12]
the body angular velocity Omega. The original dynamics are

    R' = R hat(Omega),    Omega' = Iinv ((I Omega) x Omega)

with I the diagonal matrix of principal moments. Kinetic energy
E = 0.5 Omega^T I Omega and spatial angular momentum pi = R I Omega are
first integrals; together with the orthogonality defect R^T R - I they
define the stabilizing function

    V = k0/4 ||R^T R - I||^2 + k1/2 (E - E0)^2 + k2/2 |pi - pi0|^2,

the quadratic form of ``feedback.lyapunov_value`` over the nine entries of
R^T R - I (gain k0/2 each, target 0), E and pi.
"""

import math
from dataclasses import dataclass, field as dataclass_field, replace

from .feedback import check_params, derive_system
from .numerics import dot

DIM = 12

STATE_NAMES = (
    "r00", "r01", "r02", "r10", "r11", "r12", "r20", "r21", "r22",
    "w0", "w1", "w2",
)

# Moments, initial condition, and gains of the benchmark run.
BENCHMARK_INERTIA = (3.0, 2.0, 1.0)
BENCHMARK_START = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0)
BENCHMARK_GAINS = (50.0, 100.0, 50.0)
BENCHMARK_STEP = 1e-4

GAIN_NAMES = ("k0", "k1", "k2")
CONSTANTS = ("inertia",)
DRIFT_NAMES = ("V", "dE", "dPi", "so3dev")
PROJECTION_TOL = 1e-4

# Arithmetic-geometric mean steps for K(k) in ``period``: 13 take
# AGM(1, 5e-324), the smallest double, to roundoff.
AGM_STEPS = 20


@dataclass(frozen=True)
class RigidBodyParams:
    """Principal moments, feedback gains and target integral values; inertia and pi0 are
    3-tuples of floats."""

    inertia: tuple
    k0: float
    k1: float
    k2: float
    E0: float
    pi0: tuple
    # The diagonal of K and the target f0 = (0, ..., 0, E0, pi0), in the
    # order of the integral map's values; V and the kernels read them.
    K: tuple = dataclass_field(init=False, repr=False, compare=False)
    f0: tuple = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "inertia", tuple(map(float, self.inertia)))
        object.__setattr__(self, "pi0", tuple(map(float, self.pi0)))
        object.__setattr__(self, "K", (0.5 * self.k0,) * 9 + (self.k1,) + (self.k2,) * 3)
        object.__setattr__(self, "f0", (0.0,) * 9 + (float(self.E0), *self.pi0))
        if len(self.inertia) != 3 or not all(i > 0.0 for i in self.inertia):
            raise ValueError("inertia must be three positive principal moments")
        check_params({"inertia": self.inertia},
                     {"k0": self.k0, "k1": self.k1, "k2": self.k2}, self.f0)
        if self.E0 <= 0.0:
            raise ValueError("target energy must be positive")
        if dot(self.pi0, self.pi0) == 0.0:
            raise ValueError("target angular momentum must be nonzero")


def setup(initial_state, gains, inertia=BENCHMARK_INERTIA):
    """Params (gains (k0, k1, k2), targets (E0, pi0) from the start) and the
    start state; None starts at R = identity, Omega = (1,1,1)."""
    s0 = BENCHMARK_START if initial_state is None else tuple(map(float, initial_state))
    k0, k1, k2 = gains
    # stand-in targets, so that the params check the moments before the integrals read them
    p = RigidBodyParams(inertia=inertia, k0=float(k0), k1=float(k1), k2=float(k2),
                        E0=1.0, pi0=(1.0, 0.0, 0.0))
    E0, q0, q1, q2, _ = invariant_components(p, s0)
    return replace(p, E0=E0, pi0=(q0, q1, q2)), s0


def _values(p: RigidBodyParams, v) -> tuple:
    """(vec(R^T R - I), E, pi) at the state components v, as 13 components,
    for the principal moments ``p.inertia``; R^T R - I is symmetric, so its
    entries d01, d02 and d12 appear twice."""
    r00, r01, r02, r10, r11, r12, r20, r21, r22, w0, w1, w2 = v
    i0, i1, i2 = p.inertia
    m0, m1, m2 = i0 * w0, i1 * w1, i2 * w2
    d01 = r00 * r01 + r10 * r11 + r20 * r21
    d02 = r00 * r02 + r10 * r12 + r20 * r22
    d12 = r01 * r02 + r11 * r12 + r21 * r22
    return (r00 * r00 + r10 * r10 + r20 * r20 - 1.0, d01, d02,
            d01, r01 * r01 + r11 * r11 + r21 * r21 - 1.0, d12,
            d02, d12, r02 * r02 + r12 * r12 + r22 * r22 - 1.0,
            0.5 * (w0 * m0 + w1 * m1 + w2 * m2),
            r00 * m0 + r01 * m1 + r02 * m2,
            r10 * m0 + r11 * m1 + r12 * m2,
            r20 * m0 + r21 * m1 + r22 * m2)


def _integrals_of(values) -> tuple:
    """(E, pi, ||R^T R - I||^2) from the 13 values of ``_values``."""
    d00, d01, d02, _, d11, d12, _, _, d22, E, q0, q1, q2 = values
    return (E, q0, q1, q2,
            d00 * d00 + d11 * d11 + d22 * d22
            + 2.0 * (d01 * d01 + d02 * d02 + d12 * d12))


def invariant_components(p: RigidBodyParams, s) -> tuple:
    """(E, pi, ||R^T R - I||^2) at s as five Python floats: E, pi0, pi1, pi2, defect_sq.

    With ``_values`` the one source of the rigid-body integrals: the
    kernels below, the integral map, the target values (E0, pi0), ``V`` and
    the drift metrics all evaluate these expressions.
    """
    return _integrals_of(_values(p, s))


def field(p: RigidBodyParams, v) -> tuple:
    """Original dynamics (R hat(Omega), Iinv((I Omega) x Omega)) at the state
    components v, as 12 components.

    Row i of R hat(Omega) is row i of R crossed with Omega.
    """
    r00, r01, r02, r10, r11, r12, r20, r21, r22, w0, w1, w2 = v
    i0, i1, i2 = p.inertia
    m0, m1, m2 = i0 * w0, i1 * w1, i2 * w2
    return (
        r01 * w2 - r02 * w1, r02 * w0 - r00 * w2, r00 * w1 - r01 * w0,
        r11 * w2 - r12 * w1, r12 * w0 - r10 * w2, r10 * w1 - r11 * w0,
        r21 * w2 - r22 * w1, r22 * w0 - r20 * w2, r20 * w1 - r21 * w0,
        (m1 * w2 - m2 * w1) / i0, (m2 * w0 - m0 * w2) / i1, (m0 * w1 - m1 * w0) / i2,
    )


def _feedback(p: RigidBodyParams, v) -> tuple:
    """The feedback field X - grad V and grad V at the state components v,
    as 12 components each, and the 13 ``_values`` there. The closed form
    of grad V is

    grad_R = k0 R (R^T R - I) + k2 (pi - pi0) (I Omega)^T
    grad_Omega = k1 (E - E0) I Omega + k2 I R^T (pi - pi0).

    ``feedback.generic_gradient``, built from ``_map_values`` and
    ``_jacobian_rows``, is the oracle it is checked against. The field
    repeats the expressions of ``field``, and the defect, E and pi those of
    ``_values``, inline: the feedback field is the difference of ``field``
    and ``lyapunov_gradient`` bit for bit, the values are ``_values``', and
    the gradient is exactly zero at the state the targets came from.
    """
    r00, r01, r02, r10, r11, r12, r20, r21, r22, w0, w1, w2 = v
    i0, i1, i2 = p.inertia
    E0, t0, t1, t2 = p.f0[9:]
    m0, m1, m2 = i0 * w0, i1 * w1, i2 * w2
    d00 = r00 * r00 + r10 * r10 + r20 * r20 - 1.0
    d11 = r01 * r01 + r11 * r11 + r21 * r21 - 1.0
    d22 = r02 * r02 + r12 * r12 + r22 * r22 - 1.0
    d01 = r00 * r01 + r10 * r11 + r20 * r21
    d02 = r00 * r02 + r10 * r12 + r20 * r22
    d12 = r01 * r02 + r11 * r12 + r21 * r22
    E = 0.5 * (w0 * m0 + w1 * m1 + w2 * m2)
    pi0 = r00 * m0 + r01 * m1 + r02 * m2
    pi1 = r10 * m0 + r11 * m1 + r12 * m2
    pi2 = r20 * m0 + r21 * m1 + r22 * m2
    k0, k2 = p.k0, p.k2
    e = p.k1 * (E - E0)
    q0 = k2 * (pi0 - t0)
    q1 = k2 * (pi1 - t1)
    q2 = k2 * (pi2 - t2)
    g00 = k0 * (r00 * d00 + r01 * d01 + r02 * d02) + q0 * m0
    g01 = k0 * (r00 * d01 + r01 * d11 + r02 * d12) + q0 * m1
    g02 = k0 * (r00 * d02 + r01 * d12 + r02 * d22) + q0 * m2
    g10 = k0 * (r10 * d00 + r11 * d01 + r12 * d02) + q1 * m0
    g11 = k0 * (r10 * d01 + r11 * d11 + r12 * d12) + q1 * m1
    g12 = k0 * (r10 * d02 + r11 * d12 + r12 * d22) + q1 * m2
    g20 = k0 * (r20 * d00 + r21 * d01 + r22 * d02) + q2 * m0
    g21 = k0 * (r20 * d01 + r21 * d11 + r22 * d12) + q2 * m1
    g22 = k0 * (r20 * d02 + r21 * d12 + r22 * d22) + q2 * m2
    h0 = e * m0 + i0 * (r00 * q0 + r10 * q1 + r20 * q2)
    h1 = e * m1 + i1 * (r01 * q0 + r11 * q1 + r21 * q2)
    h2 = e * m2 + i2 * (r02 * q0 + r12 * q1 + r22 * q2)
    return (
        (r01 * w2 - r02 * w1 - g00, r02 * w0 - r00 * w2 - g01, r00 * w1 - r01 * w0 - g02,
         r11 * w2 - r12 * w1 - g10, r12 * w0 - r10 * w2 - g11, r10 * w1 - r11 * w0 - g12,
         r21 * w2 - r22 * w1 - g20, r22 * w0 - r20 * w2 - g21, r20 * w1 - r21 * w0 - g22,
         (m1 * w2 - m2 * w1) / i0 - h0, (m2 * w0 - m0 * w2) / i1 - h1,
         (m0 * w1 - m1 * w0) / i2 - h2),
        (g00, g01, g02, g10, g11, g12, g20, g21, g22, h0, h1, h2),
        (d00, d01, d02, d01, d11, d12, d02, d12, d22, E, pi0, pi1, pi2),
    )


def _drift_row(start, values, V) -> tuple:
    """The ``DRIFT_NAMES`` row V, |E - E(s0)|, |pi - pi(s0)| and
    ||R^T R - I||, from the 13 ``_values`` at a state and at the start s0
    and V."""
    E, q0, q1, q2, defect_sq = _integrals_of(values)
    E_start, p0, p1, p2 = start[9:]
    u0, u1, u2 = q0 - p0, q1 - p1, q2 - p2
    return V, abs(E - E_start), math.sqrt(u0 * u0 + u1 * u1 + u2 * u2), math.sqrt(defect_sq)


def gain_bound(p: RigidBodyParams) -> float:
    """Upper bound on admissible sublevel values c:

    min(k0/4, k1 |E0| / 2, k2 |pi0|^2 / 2).
    """
    return min(
        0.25 * p.k0,
        0.5 * p.k1 * abs(p.E0),
        0.5 * p.k2 * dot(p.pi0, p.pi0),
    )


def period(p: RigidBodyParams, s0) -> float:
    """Period of the body angular velocity Omega from s0, by the elliptic
    solution of Euler's equations (Landau and Lifshitz, *Mechanics*,
    section 37):

        T = 4 K(k) sqrt(I1 I2 I3 / ((I3 - I2) (M^2 - 2 E I1))),
        k^2 = (I2 - I1) (2 E I3 - M^2) / ((I3 - I2) (M^2 - 2 E I1)),

    with the moments in ascending order, I1 and I3 swapped when
    M^2 < 2 E I2, and E and M^2 = |I Omega|^2 those of s0's Omega, which
    the flow of Omega keeps whatever R is. A rotation about the largest or
    smallest axis gives k = 0, the limit of small oscillations about it;
    two equal moments give k = 0 and the precession period. Where k reaches
    1 (the separatrix, a rotation about the middle axis, three equal
    moments) or the formula has no value (Omega in the plane of two equal
    moments, overflow), T is inf.
    """
    w = s0[9:]
    two_e = sum(i * x * x for i, x in zip(p.inertia, w))
    m_sq = sum((i * x) ** 2 for i, x in zip(p.inertia, w))
    i1, i2, i3 = sorted(p.inertia)
    if m_sq < two_e * i2:
        i1, i3 = i3, i1
    scale = (i3 - i2) * (m_sq - two_e * i1)
    k_sq = max(0.0, (i2 - i1) * (two_e * i3 - m_sq) / scale) if scale > 0.0 else math.nan
    if not k_sq < 1.0:
        return math.inf
    # K(k) = pi / (2 AGM(1, k')) (Abramowitz and Stegun, 17.6), with a
    # fixed number of steps: a loop until a == b can cycle in the last ulp
    a, b = 1.0, math.sqrt(1.0 - k_sq)
    for _ in range(AGM_STEPS):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 2.0 * math.pi / a * math.sqrt(i1 * i2 * i3 / scale)


# Symmetric factor ordering (McLachlan 1993): half steps on axes 0 and 1
# around a full step on axis 2, giving an order-2 composition of exact
# single-axis rotations.
_SPLIT_PLAN = ((0, 0.5), (1, 0.5), (2, 1.0), (1, 0.5), (0, 0.5))


def splitting_step(p: RigidBodyParams, s: tuple, h: float) -> tuple:
    """Three-rotations splitting applied to the original dynamics.

    Each factor freezes the body momentum component m_a = I_a Omega_a along
    one principal axis a and flows the rotation Q by the angle
    (m_a / I_a) (frac h) about that axis exactly: R <- R Q and m <- Q^T m,
    so R stays a product of rotations and, starting on SO(3), remains there
    to roundoff. Maps a tuple of 12 floats to a tuple of 12 floats.
    """
    inertia = p.inertia
    r = list(s[:9])
    m = [ik * wk for ik, wk in zip(inertia, s[9:])]
    for axis, frac in _SPLIT_PLAN:
        angle = (m[axis] / inertia[axis]) * (frac * h)
        c, sn = math.cos(angle), math.sin(angle)
        i, j = (axis + 1) % 3, (axis + 2) % 3  # the plane the rotation turns
        for a in (0, 3, 6):  # columns i and j of each row of R
            ri, rj = r[a + i], r[a + j]
            r[a + i] = ri * c + rj * sn
            r[a + j] = rj * c - ri * sn
        mi, mj = m[i], m[j]
        m[i] = mi * c + mj * sn
        m[j] = mj * c - mi * sn
    return (*r, *(mk / ik for mk, ik in zip(m, inertia)))


def _jacobian_rows(p: RigidBodyParams, v) -> tuple:
    """Jacobian of (vec(R^T R - I), E, pi) at the state components v, as 13
    rows of 12 components.

    Row 3i+j, the gradient of (R^T R)_ij, holds R_aj at R_ai and R_ai at R_aj
    (2 R_ai where i = j); row 9 is (0, I Omega); row 10+i holds I Omega at
    row i of R and (R_i0 I0, R_i1 I1, R_i2 I2) at Omega.
    """
    r00, r01, r02, r10, r11, r12, r20, r21, r22, w0, w1, w2 = v
    i0, i1, i2 = p.inertia
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


# the integral values (vec(R^T R - I), E, pi) are the stacked map's values too
_map_values = _values
modified_field, lyapunov_gradient, lyapunov = derive_system(_feedback, _values)

