"""Rotationally symmetric perturbed Kepler problem.

Flat state layout matches the Kepler module: position then velocity. The
dynamics x' = v, v' = -U'(|x|) x / |x| derive from a radial potential U and
conserve the energy E = 0.5 |v|^2 + U(|x|) and the angular momentum
L = x cross v. The stabilizing function is
V = k1/2 (E - E0)^2 + k2/2 |L - L0|^2.

The level set {E = E0, L = L0} is a clean (full-rank) constraint target as
long as no radius r > 0 simultaneously solves

    E0 = r U'(r) / 2 + U(r)    and    |L0|^2 = r^3 U'(r),

i.e. as long as (E0, L0) is not the data of a circular orbit of the
potential. ``check_hypothesis`` tests this numerically on a bracket.
"""

import math
import operator
from dataclasses import dataclass, field as dataclass_field
from typing import Callable

import numpy as np

from .errors import DomainError
from .feedback import FeedbackSpec, FirstIntegralMap
from .numerics import componentwise, cross, norm, radius

DIM = 6

STATE_NAMES = ("x0", "x1", "x2", "v0", "v1", "v2")

BENCHMARK_MU = 1.0
BENCHMARK_DELTA = 0.0025
BENCHMARK_ECCENTRICITY = 0.6
BENCHMARK_GAINS = (2.0, 3.0)

# Residual threshold for declaring the circular-orbit equations incompatible,
# and the default radius bracket searched for candidate roots.
HYPOTHESIS_RESIDUAL_TOL = 1e-9
DEFAULT_BRACKET = (1e-3, 1e3)


@dataclass(frozen=True)
class RadialPotential:
    """Radial potential r -> U(r) together with its analytic derivative.

    Both take and return Python floats; a batch of states evaluates them at
    each radius in turn (see ``_radial``).
    """

    u: Callable[[float], float]
    u_prime: Callable[[float], float]


def inverse_cube_perturbed(mu: float, delta: float) -> RadialPotential:
    """U(r) = -mu/r - delta/r^3; delta = 0 reduces to the plain Kepler potential."""
    if mu <= 0.0 or delta < 0.0:
        raise ValueError("need mu > 0 and delta >= 0")

    def u(r):
        return -mu / r - delta / r**3

    def u_prime(r):
        return mu / r**2 + 3.0 * delta / r**4

    return RadialPotential(u=u, u_prime=u_prime)


@dataclass(frozen=True)
class PerturbedKeplerParams:
    """Potential, gains, and target (E0, L0) values."""

    potential: RadialPotential
    k1: float
    k2: float
    E0: float
    L0: np.ndarray
    # (E0, L0) as four Python floats, read by the float kernels on every call.
    _target: tuple = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "L0", np.asarray(self.L0, dtype=float))
        object.__setattr__(self, "_target", (float(self.E0), *self.L0.tolist()))
        if min(self.k1, self.k2) <= 0.0:
            raise ValueError("gains must be positive")
        if norm(self.L0) == 0.0:
            raise ValueError("target angular momentum must be nonzero")

    @classmethod
    def from_initial(cls, potential, x0, v0, k1, k2) -> "PerturbedKeplerParams":
        s = np.concatenate((np.asarray(x0, dtype=float), np.asarray(v0, dtype=float)))
        E, l0, l1, l2 = invariant_components(potential, s)
        return cls(potential=potential, k1=float(k1), k2=float(k2), E0=E, L0=(l0, l1, l2))


def benchmark_setup(k1=None, k2=None, mu=None, delta=None, eccentricity=None):
    """Benchmark setup: mu = 1, delta = 0.0025, start at perihelion of an
    e = 0.6 Kepler ellipse: x = (1-e, 0, 0), v = (0, sqrt((1+e)/(1-e)), 0)."""
    mu = BENCHMARK_MU if mu is None else mu
    delta = BENCHMARK_DELTA if delta is None else delta
    e = BENCHMARK_ECCENTRICITY if eccentricity is None else eccentricity
    if not 0.0 <= e < 1.0:
        raise ValueError(f"eccentricity must lie in [0, 1), got {e!r}")
    gains = (BENCHMARK_GAINS[0] if k1 is None else k1, BENCHMARK_GAINS[1] if k2 is None else k2)
    potential = inverse_cube_perturbed(mu, delta)
    x0 = np.array((1.0 - e, 0.0, 0.0))
    v0 = np.array((0.0, math.sqrt((1.0 + e) / (1.0 - e)), 0.0))
    params = PerturbedKeplerParams.from_initial(potential, x0, v0, *gains)
    return params, np.concatenate((x0, v0))


def _radial(fn, r):
    """A potential function at a float radius, or at each radius of an array.

    Potentials are written for floats: ``inverse_cube_perturbed`` uses
    Python's ``**``, which raises OverflowError where a product would go on
    with inf, and the trajectory driver reports that as the failing step. A
    batch calls the same function at each of its radii, so its entries equal
    the single-state values bit for bit.
    """
    if isinstance(r, np.ndarray):
        return np.fromiter(map(fn, r.tolist()), float, len(r))
    return fn(r)


def _field_components(p: PerturbedKeplerParams, v) -> tuple:
    """(v, -U'(|x|) x / |x|) at the state components v, as 6 components."""
    x0, x1, x2, v0, v1, v2 = v
    r = radius(x0 * x0 + x1 * x1 + x2 * x2)
    c = -_radial(p.potential.u_prime, r) / r
    return v0, v1, v2, c * x0, c * x1, c * x2


def field(p: PerturbedKeplerParams, s: np.ndarray) -> np.ndarray:
    """Original dynamics (v, -U'(|x|) x / |x|) at a state (6,) or a batch (N, 6)."""
    return componentwise(_field_components, p, s)


def accel(p: PerturbedKeplerParams, q: np.ndarray) -> np.ndarray:
    """Position-only acceleration -U'(|q|) q / |q|."""
    q0, q1, q2 = q.tolist()
    r = radius(q0 * q0 + q1 * q1 + q2 * q2)
    c = -p.potential.u_prime(r) / r
    return np.array((c * q0, c * q1, c * q2))


def invariant_components(potential: RadialPotential, s: np.ndarray) -> tuple:
    """(E, L) at s as four Python floats: E, L0, L1, L2.

    The one source of the perturbed-Kepler integrals: the target values
    (E0, L0), ``invariants``, ``lyapunov``, the integral map's ``eval`` and
    the drift metrics all evaluate these expressions.
    """
    x0, x1, x2, v0, v1, v2 = s.tolist()
    r = radius(x0 * x0 + x1 * x1 + x2 * x2)
    E = 0.5 * (v0 * v0 + v1 * v1 + v2 * v2) + potential.u(r)
    if not math.isfinite(E):
        raise DomainError(f"potential evaluation not finite at r = {r:.3e}")
    return E, x1 * v2 - x2 * v1, x2 * v0 - x0 * v2, x0 * v1 - x1 * v0


def invariants(p: PerturbedKeplerParams, s: np.ndarray):
    """Total energy E and angular momentum vector L."""
    E, l0, l1, l2 = invariant_components(p.potential, s)
    return E, np.array((l0, l1, l2))


def lyapunov(p: PerturbedKeplerParams, s: np.ndarray) -> float:
    E, l0, l1, l2 = invariant_components(p.potential, s)
    t = p._target
    dE = E - t[0]
    d0, d1, d2 = l0 - t[1], l1 - t[2], l2 - t[3]
    return 0.5 * p.k1 * dE * dE + 0.5 * p.k2 * (d0 * d0 + d1 * d1 + d2 * d2)


def _gradient_components(p: PerturbedKeplerParams, v) -> tuple:
    """Closed-form gradient of V at the state components v, as 6 components:

    grad_x = k1 dE U'(|x|) x/|x| + k2 v x dL
    grad_v = k1 dE v + k2 dL x x

    ``integral_map``'s numpy ``jac_t`` is kept apart as the oracle it is
    checked against. E and L repeat the expressions of
    ``invariant_components`` inline, so the gradient is exactly zero at the
    state the targets came from.
    """
    x0, x1, x2, v0, v1, v2 = v
    r = radius(x0 * x0 + x1 * x1 + x2 * x2)
    E0, t0, t1, t2 = p._target
    e = p.k1 * (0.5 * (v0 * v0 + v1 * v1 + v2 * v2) + _radial(p.potential.u, r) - E0)
    c = e * _radial(p.potential.u_prime, r) / r
    d0 = x1 * v2 - x2 * v1 - t0
    d1 = x2 * v0 - x0 * v2 - t1
    d2 = x0 * v1 - x1 * v0 - t2
    k2 = p.k2
    return (
        c * x0 + k2 * (v1 * d2 - v2 * d1),
        c * x1 + k2 * (v2 * d0 - v0 * d2),
        c * x2 + k2 * (v0 * d1 - v1 * d0),
        e * v0 + k2 * (d1 * x2 - d2 * x1),
        e * v1 + k2 * (d2 * x0 - d0 * x2),
        e * v2 + k2 * (d0 * x1 - d1 * x0),
    )


def lyapunov_gradient(p: PerturbedKeplerParams, s: np.ndarray) -> np.ndarray:
    """Closed-form gradient of V (see ``_gradient_components``).

    Takes a state of shape (6,) or a batch of shape (N, 6).
    """
    return componentwise(_gradient_components, p, s)


def modified_field(p: PerturbedKeplerParams, s: np.ndarray) -> np.ndarray:
    """Feedback dynamics: original field minus the Lyapunov gradient.

    Both terms come from the kernels of ``field`` and
    ``lyapunov_gradient``, so the result is bit-identical to their
    difference.
    """
    v = s.tolist()
    return np.array(list(map(operator.sub, _field_components(p, v),
                             _gradient_components(p, v))))


def integral_map(p: PerturbedKeplerParams) -> FirstIntegralMap:
    """Stacked map (E, L) of dimension 4."""

    def evaluate(s):
        return np.array(invariant_components(p.potential, s))

    def jac_t(s, w):
        x = s[:3]
        v = s[3:]
        r = radius(s[0] * s[0] + s[1] * s[1] + s[2] * s[2])
        we = w[0]
        wl = w[1:]
        gx = (we * p.potential.u_prime(r) / r) * x + cross(v, wl)
        gv = we * v + cross(wl, x)
        return np.concatenate((gx, gv))

    def jacobian(s):
        # rows: grad E = (U'(r)/r x, v), then grad L_i = (-hat(v), hat(x)) row i
        x0, x1, x2, v0, v1, v2 = s.tolist()
        r = radius(x0 * x0 + x1 * x1 + x2 * x2)
        c = p.potential.u_prime(r) / r
        return np.array((
            (c * x0, c * x1, c * x2, v0, v1, v2),
            (0.0, v2, -v1, 0.0, -x2, x1),
            (-v2, 0.0, v0, x2, 0.0, -x0),
            (v1, -v0, 0.0, -x1, x0, 0.0),
        ))

    return FirstIntegralMap(
        dim_state=DIM, dim_values=4,
        eval=evaluate, jacobian_transpose_apply=jac_t, jacobian=jacobian,
    )


def feedback_spec(p: PerturbedKeplerParams) -> FeedbackSpec:
    reference = np.empty(4)
    reference[0] = p.E0
    reference[1:] = p.L0
    return FeedbackSpec(
        reference=reference,
        gain_diag=np.array([p.k1, p.k2, p.k2, p.k2]),
    )


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the circular-orbit incompatibility check.

    ``roots`` are the radii solving |L0|^2 = r^3 U'(r) inside the bracket;
    ``residuals`` the corresponding energy-equation mismatches. The
    hypothesis is satisfied when every residual exceeds ``residual_tol``
    (vacuously when no roots exist in the bracket).
    """

    satisfied: bool
    roots: tuple
    residuals: tuple
    bracket: tuple
    residual_tol: float

    @property
    def vacuous(self) -> bool:
        return len(self.roots) == 0


def _bisect(g, lo, hi, tol=1e-12, max_iter=200):
    glo = g(lo)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (glo < 0.0) == (gm < 0.0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def check_hypothesis(p: PerturbedKeplerParams, r_min=DEFAULT_BRACKET[0],
                     r_max=DEFAULT_BRACKET[1], n_grid=4096) -> HypothesisReport:
    """Locate all radii with r^3 U'(r) = |L0|^2 in [r_min, r_max] and test
    whether any also satisfies the energy equation E0 = r U'(r)/2 + U(r).

    Roots are bracketed by sign changes on a log-spaced grid (log spacing
    resolves roots close to the inner endpoint) and refined by bisection to
    1e-12. No roots means the hypothesis holds vacuously.
    """
    if not (0.0 < r_min < r_max):
        raise ValueError("need 0 < r_min < r_max")
    if n_grid < 2:
        raise ValueError("need n_grid >= 2")
    l0sq = float(p.L0 @ p.L0)

    def g(r):
        value = r**3 * p.potential.u_prime(r) - l0sq
        if not math.isfinite(value):
            raise DomainError(f"potential evaluation not finite at r = {r:.3e}")
        return value

    grid = np.geomspace(r_min, r_max, n_grid)
    values = np.array([g(r) for r in grid])
    roots = []
    for i in range(n_grid - 1):
        a, b = values[i], values[i + 1]
        if a == 0.0:
            roots.append(float(grid[i]))
        elif (a < 0.0) != (b < 0.0):
            roots.append(_bisect(g, float(grid[i]), float(grid[i + 1])))
    if values[-1] == 0.0:
        roots.append(float(grid[-1]))

    residuals = []
    for r in roots:
        energy_at_root = 0.5 * r * p.potential.u_prime(r) + p.potential.u(r)
        residuals.append(abs(p.E0 - energy_at_root))
    satisfied = all(res > HYPOTHESIS_RESIDUAL_TOL for res in residuals)
    return HypothesisReport(
        satisfied=satisfied,
        roots=tuple(roots),
        residuals=tuple(residuals),
        bracket=(float(r_min), float(r_max)),
        residual_tol=HYPOTHESIS_RESIDUAL_TOL,
    )
