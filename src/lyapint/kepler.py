"""Kepler two-body problem with angular-momentum / Laplace-Runge-Lenz feedback.

Flat state layout: s[0:3] position x, s[3:6] velocity v, in canonical units.
The dynamics x' = v, v' = -mu x / |x|^3 conserve the angular momentum
L = x cross v and the Laplace-Runge-Lenz vector A = v cross L - mu x / |x|,
which together pin down a non-degenerate elliptic orbit. The stabilizing
function is V = k1/2 |L - L0|^2 + k2/2 |A - A0|^2, the quadratic form of
``feedback.lyapunov_value`` with K = (k1, k1, k1, k2, k2, k2).
"""

import math
from dataclasses import dataclass, field as dataclass_field, replace

from .feedback import check_params, derive_system
from .numerics import dot, norm, position_acceleration, radius

DIM = 6

STATE_NAMES = ("x0", "x1", "x2", "v0", "v1", "v2")

BENCHMARK_MU = 1.0
BENCHMARK_X0 = (1.0, 0.0, 0.0)
BENCHMARK_V0 = (0.0, math.sqrt(1.8), 0.0)
BENCHMARK_GAINS = (4.0, 2.0)
BENCHMARK_STEP = 0.005

GAIN_NAMES = ("k1", "k2")
CONSTANTS = ("mu",)
DRIFT_NAMES = ("V", "dL", "dA", "dE")
PROJECTION_TOL = 0.005


@dataclass(frozen=True)
class KeplerParams:
    """Gravitational parameter, gains, and the target (L0, A0) orbit, as 3-tuples of floats."""

    mu: float
    k1: float
    k2: float
    L0: tuple
    A0: tuple
    # The diagonal of K and the target f0 = (L0, A0), in the order of the
    # integral map's values; V and the kernels read them.
    K: tuple = dataclass_field(init=False, repr=False, compare=False)
    f0: tuple = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "L0", tuple(map(float, self.L0)))
        object.__setattr__(self, "A0", tuple(map(float, self.A0)))
        object.__setattr__(self, "K", (self.k1,) * 3 + (self.k2,) * 3)
        object.__setattr__(self, "f0", self.L0 + self.A0)
        if self.mu <= 0.0:
            raise ValueError("gravitational parameter must be positive")
        check_params({"mu": self.mu}, {"k1": self.k1, "k2": self.k2}, self.f0)
        lnorm = norm(self.L0)
        anorm = norm(self.A0)
        if lnorm == 0.0:
            raise ValueError("target angular momentum must be nonzero")
        if anorm >= self.mu:
            raise ValueError("target |A0| must be below mu (elliptic orbit)")
        if abs(dot(self.L0, self.A0)) > 1e-12 * lnorm * max(anorm, 1.0):
            raise ValueError("target L0 and A0 must be orthogonal")


def setup(initial_state, gains, mu=BENCHMARK_MU):
    """Params (gains (k1, k2), targets (L0, A0) from the start) and the start
    state; None starts at the benchmark perihelion (1,0,0), speed sqrt(1.8)."""
    s0 = ((*BENCHMARK_X0, *BENCHMARK_V0) if initial_state is None
          else tuple(map(float, initial_state)))
    k1, k2 = gains
    # stand-in targets, so that the params check mu and the gains before the integrals read them
    p = KeplerParams(mu=float(mu), k1=float(k1), k2=float(k2),
                     L0=(0.0, 0.0, 1.0), A0=(0.0, 0.0, 0.0))
    l0, l1, l2, a0, a1, a2, _ = invariant_components(p, s0)
    return replace(p, L0=(l0, l1, l2), A0=(a0, a1, a2)), s0


def field(p: KeplerParams, v) -> tuple:
    """Original dynamics (v, -mu x / |x|^3) at the state components v, as 6 components."""
    x0, x1, x2, v0, v1, v2 = v
    r2 = x0 * x0 + x1 * x1 + x2 * x2
    c = -p.mu / (r2 * radius(r2))
    return v0, v1, v2, c * x0, c * x1, c * x2


accel = position_acceleration(field)  # -mu q / |q|^3


def invariant_components(p: KeplerParams, s) -> tuple:
    """(L, A, E) at the state s as seven floats: L0, L1, L2, A0, A1, A2, E,
    for p's mu; V reads (L, A), as E carries no gain.

    The one source of the Kepler integrals: the kernels below, the target
    values (L0, A0), V, the drift metrics and the ``check`` vector
    identities all evaluate these expressions.
    """
    x0, x1, x2, v0, v1, v2 = s
    m = p.mu / radius(x0 * x0 + x1 * x1 + x2 * x2)
    l0 = x1 * v2 - x2 * v1
    l1 = x2 * v0 - x0 * v2
    l2 = x0 * v1 - x1 * v0
    return (l0, l1, l2,
            v1 * l2 - v2 * l1 - m * x0,
            v2 * l0 - v0 * l2 - m * x1,
            v0 * l1 - v1 * l0 - m * x2,
            0.5 * (v0 * v0 + v1 * v1 + v2 * v2) - m)


def _drift_row(start, values, V) -> tuple:
    """The ``DRIFT_NAMES`` row V, |L - L(s0)|, |A - A(s0)| and |E - E(s0)|,
    from the integrals (L, A, E) at a state and at the start s0 and V."""
    l0, l1, l2, a0, a1, a2, E = values
    L0x, L0y, L0z, A0x, A0y, A0z, E0 = start
    u0, u1, u2 = l0 - L0x, l1 - L0y, l2 - L0z
    w0, w1, w2 = a0 - A0x, a1 - A0y, a2 - A0z
    return (V, math.sqrt(u0 * u0 + u1 * u1 + u2 * u2),
            math.sqrt(w0 * w0 + w1 * w1 + w2 * w2), abs(E - E0))


def _feedback(p: KeplerParams, v) -> tuple:
    """The feedback field X - grad V and grad V at the state components v,
    as 6 components each, and the integrals (L, A, E) there, as
    ``invariant_components`` gives them.

    With dL = L - L0 and dA = A - A0, the closed form of grad V is

        grad_x = k1 v x dL + k2 ((|v|^2 - mu/|x|) dA - (v . dA) v + mu/|x|^3 (x . dA) x)
        grad_v = k1 dL x x + k2 (L x dA + (x . dA) v - (x . v) dA),

    where v x (dA x v) and x x (v x dA) are expanded by the BAC-CAB rule.
    ``feedback.generic_gradient``, built from ``_map_values`` and
    ``_jacobian_rows``, is the oracle it is checked against. L, A and E
    repeat the expressions of ``invariant_components`` inline (a shared helper
    returning them made this kernel about 1.5 us, some 40%, slower per
    call), so they are its values bit for bit, and dL and dA are exactly
    zero at the state the targets came from.
    """
    x0, x1, x2, v0, v1, v2 = v
    r2 = x0 * x0 + x1 * x1 + x2 * x2
    r = radius(r2)
    m = p.mu / r
    m3 = p.mu / (r2 * r)
    l0 = x1 * v2 - x2 * v1
    l1 = x2 * v0 - x0 * v2
    l2 = x0 * v1 - x1 * v0
    a0 = v1 * l2 - v2 * l1 - m * x0
    a1 = v2 * l0 - v0 * l2 - m * x1
    a2 = v0 * l1 - v1 * l0 - m * x2
    t = p.f0
    d0, d1, d2 = l0 - t[0], l1 - t[1], l2 - t[2]
    e0, e1, e2 = a0 - t[3], a1 - t[4], a2 - t[5]
    k1, k2 = p.k1, p.k2
    vv = v0 * v0 + v1 * v1 + v2 * v2
    xe = x0 * e0 + x1 * e1 + x2 * e2
    ve = v0 * e0 + v1 * e1 + v2 * e2
    xv = x0 * v0 + x1 * v1 + x2 * v2
    a = vv - m
    q = m3 * xe
    g0 = k1 * (v1 * d2 - v2 * d1) + k2 * (a * e0 - ve * v0 + q * x0)
    g1 = k1 * (v2 * d0 - v0 * d2) + k2 * (a * e1 - ve * v1 + q * x1)
    g2 = k1 * (v0 * d1 - v1 * d0) + k2 * (a * e2 - ve * v2 + q * x2)
    g3 = k1 * (d1 * x2 - d2 * x1) + k2 * (l1 * e2 - l2 * e1 + xe * v0 - xv * e0)
    g4 = k1 * (d2 * x0 - d0 * x2) + k2 * (l2 * e0 - l0 * e2 + xe * v1 - xv * e1)
    g5 = k1 * (d0 * x1 - d1 * x0) + k2 * (l0 * e1 - l1 * e0 + xe * v2 - xv * e2)
    c = -m3  # the field's factor, as in ``field``: v' = c x
    return ((v0 - g0, v1 - g1, v2 - g2, c * x0 - g3, c * x1 - g4, c * x2 - g5),
            (g0, g1, g2, g3, g4, g5),
            (l0, l1, l2, a0, a1, a2, 0.5 * vv - m))


def gain_bound(p: KeplerParams) -> float:
    """Upper bound on admissible sublevel values c:

    min(k1 |L0|^2 / 2, k2 (mu - |A0|)^2 / 2).
    """
    return min(
        0.5 * p.k1 * dot(p.L0, p.L0),
        0.5 * p.k2 * (p.mu - norm(p.A0)) ** 2,
    )


def orbit_geometry(p: KeplerParams):
    """Semi-major axis, eccentricity, and period of the (L0, A0) orbit.

    Uses e = |A0| / mu, the energy relation E = (|A0|^2 - mu^2) / (2 |L0|^2),
    a = -mu / (2 E) and T = 2 pi sqrt(a^3 / mu); only elliptic targets are
    accepted (|A0| < mu is enforced at construction).
    """
    e = norm(p.A0) / p.mu
    energy = (dot(p.A0, p.A0) - p.mu**2) / (2.0 * dot(p.L0, p.L0))
    if energy >= 0.0:
        raise ValueError("orbit geometry requires a bound (elliptic) target")
    a = -p.mu / (2.0 * energy)
    period = 2.0 * math.pi * math.sqrt(a**3 / p.mu)
    return a, e, period


def period(p: KeplerParams, s0) -> float:
    """Period of the target orbit (see ``orbit_geometry``); the targets
    (L0, A0) are s0's, so s0 adds nothing."""
    return orbit_geometry(p)[2]


def _unit(v) -> tuple:
    n = norm(v)
    return tuple(c / n for c in v)


def _orbit_frame(p: KeplerParams):
    """Unit periapsis axis u and the in-plane unit normal n = w x u, w = L0 / |L0|."""
    w0, w1, w2 = w = _unit(p.L0)
    if norm(p.A0) > 0.0:
        u0, u1, u2 = _unit(p.A0)
    else:
        # Circular target: any in-plane unit vector serves as periapsis axis.
        trial = (1.0, 0.0, 0.0) if abs(w0) <= 0.9 else (0.0, 1.0, 0.0)
        c = dot(trial, w)
        u0, u1, u2 = _unit([t - c * wi for t, wi in zip(trial, w)])
    return (u0, u1, u2), (w1 * u2 - w2 * u1, w2 * u0 - w0 * u2, w0 * u1 - w1 * u0)


def state_at_eccentric_anomaly(p: KeplerParams, psi: float) -> tuple:
    """Point of the (L0, A0) orbit at eccentric anomaly psi (psi = 0 is perihelion), as 6 floats."""
    a, e, _ = orbit_geometry(p)
    b = a * math.sqrt(1.0 - e * e)
    u, n = _orbit_frame(p)
    mean_rate = math.sqrt(p.mu / a**3)
    cpsi = math.cos(psi)
    spsi = math.sin(psi)
    cx, nx = a * (cpsi - e), b * spsi
    rate = mean_rate / (1.0 - e * cpsi)
    cv, nv = -a * spsi, b * cpsi
    return (*(cx * ui + nx * ni for ui, ni in zip(u, n)),
            *((cv * ui + nv * ni) * rate for ui, ni in zip(u, n)))


def _map_values(p: KeplerParams, v) -> tuple:
    """(L, A) at the state components v, as 6 components: the stacked map's values."""
    return invariant_components(p, v)[:6]


def _jacobian_rows(p: KeplerParams, v) -> tuple:
    """Jacobian of (L, A) at the state components v, as 6 rows of 6 components:

    grad L_i = (-hat(v), hat(x)) row i, then grad A_i =
    ((|v|^2 - mu/|x|) I - v v^T + mu/|x|^3 x x^T, -hat(L) + x v^T - (x . v) I) row i.
    """
    x0, x1, x2, v0, v1, v2 = v
    r2 = x0 * x0 + x1 * x1 + x2 * x2
    r = radius(r2)
    m3 = p.mu / (r2 * r)
    a = v0 * v0 + v1 * v1 + v2 * v2 - p.mu / r
    xv = x0 * v0 + x1 * v1 + x2 * v2
    l0 = x1 * v2 - x2 * v1
    l1 = x2 * v0 - x0 * v2
    l2 = x0 * v1 - x1 * v0
    mx0, mx1, mx2 = m3 * x0, m3 * x1, m3 * x2
    return (
        (0.0, v2, -v1, 0.0, -x2, x1),
        (-v2, 0.0, v0, x2, 0.0, -x0),
        (v1, -v0, 0.0, -x1, x0, 0.0),
        (a - v0 * v0 + mx0 * x0, mx0 * x1 - v0 * v1, mx0 * x2 - v0 * v2,
         x0 * v0 - xv, l2 + x0 * v1, x0 * v2 - l1),
        (mx1 * x0 - v1 * v0, a - v1 * v1 + mx1 * x1, mx1 * x2 - v1 * v2,
         x1 * v0 - l2, x1 * v1 - xv, l0 + x1 * v2),
        (mx2 * x0 - v2 * v0, mx2 * x1 - v2 * v1, a - v2 * v2 + mx2 * x2,
         l1 + x2 * v0, x2 * v1 - l0, x2 * v2 - xv),
    )


# the integral values (L, A, E) that ``_feedback`` gives and the drift rows read
_values = invariant_components
modified_field, lyapunov_gradient, lyapunov = derive_system(_feedback, _values)

