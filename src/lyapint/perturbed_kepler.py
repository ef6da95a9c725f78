"""Rotationally symmetric perturbed Kepler problem.

Flat state layout matches the Kepler module: position then velocity. The
dynamics x' = v, v' = -U'(|x|) x / |x| derive from the radial potential
U(r) = -mu/r - delta/r^3 (``u`` and ``u_prime`` below, functions of the
params, which hold mu and delta) and conserve the energy
E = 0.5 |v|^2 + U(|x|) and the angular momentum L = x cross v; delta = 0 is
the Kepler problem. The stabilizing function is
V = k1/2 (E - E0)^2 + k2/2 |L - L0|^2, the quadratic form of
``feedback.lyapunov_value`` with K = (k1, k2, k2, k2).

The level set {E = E0, L = L0} is a clean (full-rank) constraint target as
long as no radius r > 0 simultaneously solves

    E0 = r U'(r) / 2 + U(r)    and    |L0|^2 = r^3 U'(r),

i.e. as long as (E0, L0) is not the data of a circular orbit of the
potential. ``check_hypothesis`` tests this on a bracket, with the candidate
radii in closed form as the roots of a quadratic in r. ``radial_band``
takes the turning points that bound the start's radial motion in closed
form too, as two roots of the cubic r g(r); ``level_set_states`` builds
states of the level set across that band in closed form, and ``period``
integrates over it.
"""

import math
from dataclasses import dataclass, field as dataclass_field, replace
from functools import partial
from typing import NamedTuple

from .errors import DomainError
from .feedback import check_params, derive_system
from .numerics import dot, norm, position_acceleration, radius

DIM = 6

STATE_NAMES = ("x0", "x1", "x2", "v0", "v1", "v2")

BENCHMARK_MU = 1.0
BENCHMARK_DELTA = 0.0025
BENCHMARK_ECCENTRICITY = 0.6
BENCHMARK_GAINS = (2.0, 3.0)
BENCHMARK_STEP = 0.03

GAIN_NAMES = ("k1", "k2")
CONSTANTS = ("mu", "delta", "eccentricity")
DRIFT_NAMES = ("V", "dE", "dL")
PROJECTION_TOL = 1e-8

# Residual threshold for declaring the circular-orbit equations incompatible,
# and the radius bracket searched for candidate roots.
HYPOTHESIS_RESIDUAL_TOL = 1e-9
DEFAULT_BRACKET = (1e-3, 1e3)

# ``period`` sums on BAND_NODES Gauss-Chebyshev nodes.
BAND_NODES = 64


@dataclass(frozen=True)
class PerturbedKeplerParams:
    """Potential constants, gains, and target (E0, L0) values; L0 is a 3-tuple of floats."""

    mu: float
    delta: float
    k1: float
    k2: float
    E0: float
    L0: tuple
    # The diagonal of K and the target f0 = (E0, L0), in the order of the
    # integral map's values; V and the kernels read them.
    K: tuple = dataclass_field(init=False, repr=False, compare=False)
    f0: tuple = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "L0", tuple(map(float, self.L0)))
        object.__setattr__(self, "K", (self.k1, self.k2, self.k2, self.k2))
        object.__setattr__(self, "f0", (float(self.E0), *self.L0))
        if not (self.mu > 0.0 and self.delta >= 0.0):
            raise ValueError(f"need mu > 0 and delta >= 0, got mu = {self.mu!r}, "
                             f"delta = {self.delta!r}")
        check_params({"mu": self.mu, "delta": self.delta}, {"k1": self.k1, "k2": self.k2},
                     self.f0)
        if norm(self.L0) == 0.0:
            raise ValueError("target angular momentum must be nonzero")


def u(p: PerturbedKeplerParams, r):
    """U(r) = -mu/r - delta/r^3 at a float radius r."""
    return -p.mu / r - p.delta / r**3


def u_prime(p: PerturbedKeplerParams, r):
    """U'(r) = mu/r^2 + 3 delta/r^4 at a float radius r."""
    return p.mu / r**2 + 3.0 * p.delta / r**4


def setup(initial_state, gains, mu=BENCHMARK_MU, delta=BENCHMARK_DELTA, eccentricity=None):
    """Params (gains (k1, k2), targets (E0, L0) from the start) and the start
    state. None starts at the perihelion of a Kepler ellipse of eccentricity
    e (default 0.6), x = (1-e, 0, 0), v = (0, sqrt((1+e)/(1-e)), 0); e sets
    only that start, so it cannot come with an explicit ``initial_state``."""
    if initial_state is None:
        e = BENCHMARK_ECCENTRICITY if eccentricity is None else eccentricity
        if not 0.0 <= e < 1.0:
            raise ValueError(f"eccentricity must lie in [0, 1), got {e!r}")
        s0 = (1.0 - e, 0.0, 0.0, 0.0, math.sqrt((1.0 + e) / (1.0 - e)), 0.0)
    elif eccentricity is not None:
        raise ValueError("eccentricity sets the benchmark start; "
                         "it cannot be given with an explicit initial state")
    else:
        s0 = tuple(map(float, initial_state))
    k1, k2 = gains
    # the integrals read only mu and delta, so any valid targets serve until
    # the start state's are known
    p = PerturbedKeplerParams(mu=float(mu), delta=float(delta), k1=float(k1), k2=float(k2),
                              E0=0.0, L0=(0.0, 0.0, 1.0))
    E, l0, l1, l2 = invariant_components(p, s0)
    return replace(p, E0=E, L0=(l0, l1, l2)), s0


def _radial(fn, p, r):
    """``u`` or ``u_prime`` at a float radius, or at each radius of a column.

    They are written for floats: Python's ``**`` raises OverflowError where
    a product would go on with inf, and the trajectory driver reports that
    as the failing step. A block calls the same function at each of its
    radii, so its entries equal the single-state values bit for bit.
    """
    if isinstance(r, float):
        return fn(p, r)
    import numpy as np

    return np.fromiter(map(partial(fn, p), r.tolist()), float, len(r))


def field(p: PerturbedKeplerParams, v) -> tuple:
    """Original dynamics (v, -U'(|x|) x / |x|) at the state components v, as 6 components."""
    x0, x1, x2, v0, v1, v2 = v
    r = radius(x0 * x0 + x1 * x1 + x2 * x2)
    c = -_radial(u_prime, p, r) / r
    return v0, v1, v2, c * x0, c * x1, c * x2


accel = position_acceleration(field)  # -U'(|q|) q / |q|


def invariant_components(p: PerturbedKeplerParams, s) -> tuple:
    """(E, L) at s as four components: E, L0, L1, L2, for the potential
    constants of ``p``.

    ``s`` is a state, as a tuple of floats (giving Python floats), or a
    tuple of a block's columns (giving arrays (N,); a block
    with any non-finite energy is rejected as a whole). The one source of
    the perturbed-Kepler integrals: the target values (E0, L0),
    ``lyapunov``, the integral map's ``eval`` and the drift metrics all
    evaluate these expressions.
    """
    x0, x1, x2, v0, v1, v2 = s
    r = radius(x0 * x0 + x1 * x1 + x2 * x2)
    kinetic = 0.5 * (v0 * v0 + v1 * v1 + v2 * v2)
    # one type test per call: the single-state path, which every projection
    # residual takes, calls U directly
    if isinstance(r, float):
        E = kinetic + u(p, r)
        if not math.isfinite(E):
            raise DomainError(f"potential evaluation not finite at r = {r:.3e}")
    else:
        import numpy as np

        E = kinetic + _radial(u, p, r)
        finite = np.isfinite(E)
        if not finite.all():
            i = int(finite.argmin())
            raise DomainError(
                f"potential evaluation not finite at r = {r[i]:.3e} of batch state {i}")
    return E, x1 * v2 - x2 * v1, x2 * v0 - x0 * v2, x0 * v1 - x1 * v0


def _drift_row(start, values, V) -> tuple:
    """The ``DRIFT_NAMES`` row V, |E - E(s0)| and |L - L(s0)|, from the
    integrals (E, L) at a state and at the start s0 and V. A non-finite E,
    which ``_feedback`` does not check, is a DomainError, as in
    ``invariant_components``."""
    E, l0, l1, l2 = values
    if not math.isfinite(E):
        raise DomainError(f"potential evaluation not finite: E = {E!r}")
    E_start, L0x, L0y, L0z = start
    u0, u1, u2 = l0 - L0x, l1 - L0y, l2 - L0z
    return V, abs(E - E_start), math.sqrt(u0 * u0 + u1 * u1 + u2 * u2)


def radial_band(p: PerturbedKeplerParams, r0: float):
    """The turning points ``(r_in, r_out)`` that bound the band of radii
    holding r0 on the level set {E = E0, L = L0}, where g(r) =
    2 r^2 (E0 - U(r)) - |L0|^2 = r^2 v_r^2 >= 0 (Landau and Lifshitz,
    *Mechanics*, section 14): the upper two of the roots r_core <= r_in <=
    r_out of the cubic r g(r) = 2 E0 r^3 + 2 mu r^2 - |L0|^2 r + 2 delta, none
    negative, r_out by Viete's formula (Abramowitz and Stegun 3.8.2). r0 is
    in the band however it rounds, as g(r0) = (x0 . v0)^2. None where
    E0 >= 0, where only one root is real, or where r0 <= r_core (the motion
    reaches the centre).
    """
    if not p.E0 < 0.0:
        return None
    # r g(r) / (2 E0) = r^3 + 3 shift r^2 + b r + c; r = t - shift gives t^3 + 3 q t + 2 s,
    # whose largest root is 2 sqrt(-q) cos(phi) with cos(3 phi) = s / (q sqrt(-q))
    shift, b, c = p.mu / p.E0 / 3.0, dot(p.L0, p.L0) / (-2.0 * p.E0), p.delta / p.E0
    q = b / 3.0 - shift * shift
    s = shift * shift * shift - 0.5 * shift * b + 0.5 * c
    cos_3phi = s / q / math.sqrt(-q) if q < 0.0 else math.inf
    if not abs(cos_3phi) <= 1.0 + 1e-12:  # one real root, beyond rounding at a double root
        return None
    phi = math.acos(max(-1.0, min(1.0, cos_3phi))) / 3.0
    r_out = 2.0 * math.sqrt(-q) * math.cos(phi) - shift
    # r_core and r_in from their product and sum; Viete's r_in cancels where r_in << r_out
    prod = -c / r_out
    total = (b - prod) / r_out
    r_in = 0.5 * (total + math.sqrt(max(0.0, total * total - 4.0 * prod)))
    if not r0 * r_in > prod:  # r0 > r_core = prod / r_in
        return None
    return min(r_in, r0), max(r_out, r0)


def _band_geometry(p: PerturbedKeplerParams, r0: float):
    """(c, d, 2 |E0|, r_core) for the band of r0: r = c - d cos(theta) runs
    over it as theta runs over [0, pi].

    r g(r) = 2 E0 r^3 + 2 mu r^2 - |L0|^2 r + 2 delta is a cubic with roots
    r_in, r_out and, from their product, r_core = delta / (|E0| r_in r_out)
    < r_in, so v_r^2 = 2 |E0| (r - r_in) (r_out - r) (r - r_core) / r^3, and
    (r - r_in) (r_out - r) = d^2 sin(theta)^2. Then
    |v_r| = d sin(theta) sqrt(2 |E0| (r - r_core) / r^3), and dr / |v_r| is
    sqrt(r^3 / (2 |E0| (r - r_core))) d theta, smooth up to both turning
    points. None where ``radial_band`` is None, or where r_core reaches
    r_in: the orbit on the separatrix of an unstable circular orbit.
    """
    band = radial_band(p, r0)
    if band is None:
        return None
    r_in, r_out = band
    two_e = -2.0 * p.E0
    r_core = 2.0 * p.delta / (two_e * r_in * r_out)
    if not r_core < r_in:
        return None
    # c from the roots' sum mu / |E0|, exact in the coefficients: no formula
    # gets a circular orbit's double root closer than sqrt(rounding error)
    c = 0.5 * (2.0 * p.mu / two_e - r_core)
    return c, 0.5 * (r_out - r_in), two_e, r_core


def period(p: PerturbedKeplerParams, s0) -> float:
    """Radial period T_r = 2 * the integral of dr / |v_r| across the band of
    s0's radius (see ``radial_band``), on BAND_NODES Gauss-Chebyshev nodes
    in theta (see ``_band_geometry``); 2 pi sqrt(a^3 / mu) at delta = 0,
    and inf where the band or its geometry is None, as for an unbound start."""
    geometry = _band_geometry(p, norm(s0[:3]))
    if geometry is None:
        return math.inf
    c, d, two_e, r_core = geometry
    total = 0.0
    for k in range(BAND_NODES):
        r = c - d * math.cos((k + 0.5) * math.pi / BAND_NODES)
        total += math.sqrt(r**3 / (two_e * (r - r_core)))
    return 2.0 * math.pi / BAND_NODES * total


def level_set_states(p: PerturbedKeplerParams, s0) -> list:
    """7 states of the level set {E = E0, L = L0}, in closed form, at the
    radii r = c - d cos(pi k / 6), k = 0 .. 6, across the band of s0's
    radius from one turning point to the other:

        x = r u,    v = v_r u + (|L0| / r) (w x u),

    with w = L0 / |L0|, u the unit vector along s0's position normal to w,
    and v_r = +sqrt(2 (E0 - U(r)) - |L0|^2 / r^2), which is 0 at both ends.
    A ValueError where the band or its geometry is None.
    """
    geometry = _band_geometry(p, norm(s0[:3]))
    if geometry is None:
        raise ValueError("the start's radial motion has no band between two turning points")
    c, d, two_e, r_core = geometry
    l0 = norm(p.L0)
    w = tuple(x / l0 for x in p.L0)
    along = dot(s0[:3], w)
    u0, u1, u2 = (x - along * wi for x, wi in zip(s0[:3], w))
    scale = norm((u0, u1, u2))
    u0, u1, u2 = u0 / scale, u1 / scale, u2 / scale
    w0, w1, w2 = w
    n0, n1, n2 = w1 * u2 - w2 * u1, w2 * u0 - w0 * u2, w0 * u1 - w1 * u0
    states = []
    for k in range(7):
        cos_t = math.cos(math.pi * k / 6)
        r = c - d * cos_t
        # sin(theta) as sqrt(1 - cos^2) is 0 at both ends
        v_r = d * math.sqrt((1.0 - cos_t * cos_t) * two_e * (r - r_core) / r**3)
        v_t = l0 / r
        states.append((r * u0, r * u1, r * u2,
                       v_r * u0 + v_t * n0, v_r * u1 + v_t * n1, v_r * u2 + v_t * n2))
    return states


def gain_bound(p: PerturbedKeplerParams) -> float:
    """No sublevel bound is known for this system."""
    return math.inf


def _feedback(p: PerturbedKeplerParams, v) -> tuple:
    """The feedback field X - grad V and grad V at the state components v,
    as 6 components each, and the integrals (E, L) there. The closed form
    of grad V is

    grad_x = k1 dE U'(|x|) x/|x| + k2 v x dL
    grad_v = k1 dE v + k2 dL x x.

    ``feedback.generic_gradient``, built from ``_map_values`` and
    ``_jacobian_rows``, is the oracle it is checked against. The field repeats
    the expressions of ``field``, with one evaluation of U'(|x|) for both,
    and E and L those of ``invariant_components``, inline: the feedback
    field is the difference of ``field`` and ``lyapunov_gradient`` bit for
    bit, the values are ``invariant_components``' where E is finite (this
    kernel does not check it; ``_drift_row`` does), and the gradient is
    exactly zero at the state the targets came from.
    """
    x0, x1, x2, v0, v1, v2 = v
    r = radius(x0 * x0 + x1 * x1 + x2 * x2)
    E0, t0, t1, t2 = p.f0
    E = 0.5 * (v0 * v0 + v1 * v1 + v2 * v2) + _radial(u, p, r)
    l0 = x1 * v2 - x2 * v1
    l1 = x2 * v0 - x0 * v2
    l2 = x0 * v1 - x1 * v0
    e = p.k1 * (E - E0)
    force = _radial(u_prime, p, r)
    c = -force / r  # the field's factor, as in ``field``: v' = c x
    b = e * force / r
    d0, d1, d2 = l0 - t0, l1 - t1, l2 - t2
    k2 = p.k2
    g0 = b * x0 + k2 * (v1 * d2 - v2 * d1)
    g1 = b * x1 + k2 * (v2 * d0 - v0 * d2)
    g2 = b * x2 + k2 * (v0 * d1 - v1 * d0)
    g3 = e * v0 + k2 * (d1 * x2 - d2 * x1)
    g4 = e * v1 + k2 * (d2 * x0 - d0 * x2)
    g5 = e * v2 + k2 * (d0 * x1 - d1 * x0)
    return ((v0 - g0, v1 - g1, v2 - g2, c * x0 - g3, c * x1 - g4, c * x2 - g5),
            (g0, g1, g2, g3, g4, g5),
            (E, l0, l1, l2))


def _jacobian_rows(p: PerturbedKeplerParams, v) -> tuple:
    """Jacobian of (E, L) at the state components v, as 4 rows of 6 components:

    grad E = (U'(r)/r x, v), then grad L_i = (-hat(v), hat(x)) row i.
    """
    x0, x1, x2, v0, v1, v2 = v
    r = radius(x0 * x0 + x1 * x1 + x2 * x2)
    c = _radial(u_prime, p, r) / r
    return (
        (c * x0, c * x1, c * x2, v0, v1, v2),
        (0.0, v2, -v1, 0.0, -x2, x1),
        (-v2, 0.0, v0, x2, 0.0, -x0),
        (v1, -v0, 0.0, -x1, x0, 0.0),
    )


# the integral values (E, L) are the stacked map's values too
_values = _map_values = invariant_components
modified_field, lyapunov_gradient, lyapunov = derive_system(_feedback, _values)


class HypothesisReport(NamedTuple):
    """Outcome of the circular-orbit incompatibility check.

    ``roots`` are the radii solving |L0|^2 = r^3 U'(r) inside ``bracket``,
    ``DEFAULT_BRACKET``; ``residuals`` the corresponding energy-equation
    mismatches. The hypothesis is satisfied when every residual exceeds
    ``residual_tol`` (vacuously when no roots exist in the bracket).
    """

    satisfied: bool
    roots: tuple
    residuals: tuple
    bracket: tuple
    residual_tol: float


def check_hypothesis(p: PerturbedKeplerParams) -> HypothesisReport:
    """Locate all radii with r^3 U'(r) = |L0|^2 in ``DEFAULT_BRACKET`` and
    test whether any also satisfies the energy equation E0 = r U'(r)/2 + U(r).

    As r^3 U'(r) = mu r + 3 delta / r, the radii are the roots of
    mu r^2 - |L0|^2 r + 3 delta = 0, taken without cancellation as q / mu
    and 3 delta / q for q = (|L0|^2 + sqrt(disc)) / 2; a double root counts
    once. No roots means the hypothesis holds vacuously.
    """
    r_min, r_max = DEFAULT_BRACKET
    l0sq = dot(p.L0, p.L0)
    disc = l0sq * l0sq - 12.0 * p.mu * p.delta
    roots = []
    if disc >= 0.0:
        q = 0.5 * (l0sq + math.sqrt(disc))
        candidates = (q / p.mu, 3.0 * p.delta / q) if disc > 0.0 else (q / p.mu,)
        roots = sorted(r for r in candidates if r_min <= r <= r_max)

    residuals = []
    for r in roots:
        energy_at_root = 0.5 * r * u_prime(p, r) + u(p, r)
        residuals.append(abs(p.E0 - energy_at_root))
    satisfied = all(res > HYPOTHESIS_RESIDUAL_TOL for res in residuals)
    return HypothesisReport(
        satisfied=satisfied,
        roots=tuple(roots),
        residuals=tuple(residuals),
        bracket=DEFAULT_BRACKET,
        residual_tol=HYPOTHESIS_RESIDUAL_TOL,
    )
