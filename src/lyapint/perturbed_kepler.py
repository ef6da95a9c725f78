"""Rotationally symmetric perturbed Kepler problem.

Flat state layout matches the Kepler module: position then velocity. The
dynamics x' = v, v' = -U'(|x|) x / |x| derive from a radial potential U and
conserve the energy E = 0.5 |v|^2 + U(|x|) and the angular momentum
L = x cross v. The stabilizing function is
V = k1/2 (E - E0)^2 + k2/2 |L - L0|^2, the quadratic form of
``feedback.lyapunov_value`` with K = (k1, k2, k2, k2).

The level set {E = E0, L = L0} is a clean (full-rank) constraint target as
long as no radius r > 0 simultaneously solves

    E0 = r U'(r) / 2 + U(r)    and    |L0|^2 = r^3 U'(r),

i.e. as long as (E0, L0) is not the data of a circular orbit of the
potential. ``check_hypothesis`` tests this numerically on a bracket.
"""

import math
import operator
from dataclasses import dataclass, field as dataclass_field
from functools import partial
from typing import Callable

import numpy as np

from .errors import DomainError
from .feedback import FirstIntegralMap, lyapunov_value
from .numerics import componentwise, components, norm, radius

DIM = 6

STATE_NAMES = ("x0", "x1", "x2", "v0", "v1", "v2")

BENCHMARK_MU = 1.0
BENCHMARK_DELTA = 0.0025
BENCHMARK_ECCENTRICITY = 0.6
BENCHMARK_GAINS = (2.0, 3.0)
BENCHMARK_STEP = 0.03

GAIN_NAMES = ("k1", "k2")
CONSTANTS = ("mu", "delta", "eccentricity")
DRIFT_NAMES = ("dE", "dL", "V")
PROJECTION_TOL = 1e-8

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
    # The diagonal of K and the target f0 = (E0, L0) as Python floats, in the
    # order of the integral map's values; V and the kernels read them.
    K: tuple = dataclass_field(init=False, repr=False, compare=False)
    f0: tuple = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "L0", np.asarray(self.L0, dtype=float))
        object.__setattr__(self, "K", (self.k1, self.k2, self.k2, self.k2))
        object.__setattr__(self, "f0", (float(self.E0), *self.L0.tolist()))
        if min(self.k1, self.k2) <= 0.0:
            raise ValueError("gains must be positive")
        if norm(self.L0) == 0.0:
            raise ValueError("target angular momentum must be nonzero")

    @classmethod
    def from_initial(cls, potential, x0, v0, k1, k2) -> "PerturbedKeplerParams":
        s = np.concatenate((np.asarray(x0, dtype=float), np.asarray(v0, dtype=float)))
        E, l0, l1, l2 = invariant_components(potential, s)
        return cls(potential=potential, k1=float(k1), k2=float(k2), E0=E, L0=(l0, l1, l2))


def setup(initial_state, gains, mu=BENCHMARK_MU, delta=BENCHMARK_DELTA, eccentricity=None):
    """Params (gains (k1, k2), targets (E0, L0) from the start) and the start
    state. None starts at the perihelion of a Kepler ellipse of eccentricity
    e (default 0.6), x = (1-e, 0, 0), v = (0, sqrt((1+e)/(1-e)), 0); e sets
    only that start, so it cannot come with an explicit ``initial_state``."""
    if initial_state is None:
        e = BENCHMARK_ECCENTRICITY if eccentricity is None else eccentricity
        if not 0.0 <= e < 1.0:
            raise ValueError(f"eccentricity must lie in [0, 1), got {e!r}")
        s0 = np.array((1.0 - e, 0.0, 0.0, 0.0, math.sqrt((1.0 + e) / (1.0 - e)), 0.0))
    elif eccentricity is not None:
        raise ValueError("eccentricity sets the benchmark start; "
                         "it cannot be given with an explicit initial state")
    else:
        s0 = np.asarray(initial_state, dtype=float)
    potential = inverse_cube_perturbed(mu, delta)
    return PerturbedKeplerParams.from_initial(potential, s0[:3], s0[3:], *gains), s0


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


def field(p: PerturbedKeplerParams, s):
    """Original dynamics (v, -U'(|x|) x / |x|) at a state (a tuple or (6,)) or a batch (N, 6)."""
    return componentwise(_field_components, p, s)


def _accel_components(p: PerturbedKeplerParams, q) -> tuple:
    return _field_components(p, (*q, 0.0, 0.0, 0.0))[3:]


def accel(p: PerturbedKeplerParams, q):
    """Position-only acceleration -U'(|q|) q / |q|."""
    return componentwise(_accel_components, p, q)


def invariant_components(potential: RadialPotential, s) -> tuple:
    """(E, L) at s as four components: E, L0, L1, L2.

    ``s`` is a state, as an array (6,) or a tuple of floats (giving Python
    floats), or a tuple of a block's columns (giving arrays (N,); a block
    with any non-finite energy is rejected as a whole). The one source of
    the perturbed-Kepler integrals: the target values (E0, L0),
    ``lyapunov``, the integral map's ``eval`` and the drift metrics all
    evaluate these expressions.
    """
    x0, x1, x2, v0, v1, v2 = components(s)
    r = radius(x0 * x0 + x1 * x1 + x2 * x2)
    kinetic = 0.5 * (v0 * v0 + v1 * v1 + v2 * v2)
    # one type test per call: the single-state path, which every projection
    # residual takes, calls U directly
    if isinstance(r, np.ndarray):
        E = kinetic + _radial(potential.u, r)
        finite = np.isfinite(E)
        if not finite.all():
            i = int(finite.argmin())
            raise DomainError(
                f"potential evaluation not finite at r = {r[i]:.3e} of batch state {i}")
    else:
        E = kinetic + potential.u(r)
        if not math.isfinite(E):
            raise DomainError(f"potential evaluation not finite at r = {r:.3e}")
    return E, x1 * v2 - x2 * v1, x2 * v0 - x0 * v2, x0 * v1 - x1 * v0


def lyapunov(p: PerturbedKeplerParams, s) -> float:
    """V at a state, from its integrals (E, L)."""
    return lyapunov_value(p.K, p.f0, invariant_components(p.potential, s))


def drift_metrics(p: PerturbedKeplerParams, s0):
    """``drift(s)``: |E - E(s0)|, |L - L(s0)| and V at a state, from one
    ``invariant_components`` call on its floats."""
    potential, K, f0 = p.potential, p.K, p.f0
    E_start, L0x, L0y, L0z = invariant_components(potential, s0)

    def drift(s):
        integrals = invariant_components(potential, s)
        E, l0, l1, l2 = integrals
        u0, u1, u2 = l0 - L0x, l1 - L0y, l2 - L0z
        return {
            "dE": abs(E - E_start),
            "dL": math.sqrt(u0 * u0 + u1 * u1 + u2 * u2),
            "V": lyapunov_value(K, f0, integrals),
        }

    return drift


def period(p: PerturbedKeplerParams) -> float:
    """Radial period estimate from the osculating Kepler ellipse (mu = 1) of
    the start point, adequate for choosing desk-scale horizons."""
    a = -1.0 / (2.0 * p.E0) if p.E0 < 0.0 else 1.0
    return 2.0 * math.pi * math.sqrt(abs(a) ** 3)


def gain_bound(p: PerturbedKeplerParams) -> float:
    """No sublevel bound is known for this system."""
    return math.inf


def _gradient_components(p: PerturbedKeplerParams, v) -> tuple:
    """Closed-form gradient of V at the state components v, as 6 components:

    grad_x = k1 dE U'(|x|) x/|x| + k2 v x dL
    grad_v = k1 dE v + k2 dL x x

    ``feedback.generic_gradient``, built from ``integral_map``'s ``eval``
    and ``jacobian``, is the oracle it is checked against. E and L repeat
    the expressions of ``invariant_components`` inline, so the gradient is
    exactly zero at the state the targets came from.
    """
    x0, x1, x2, v0, v1, v2 = v
    r = radius(x0 * x0 + x1 * x1 + x2 * x2)
    E0, t0, t1, t2 = p.f0
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


def lyapunov_gradient(p: PerturbedKeplerParams, s):
    """Closed-form gradient of V (see ``_gradient_components``).

    Takes a tuple of floats, a state of shape (6,) or a batch of shape (N, 6).
    """
    return componentwise(_gradient_components, p, s)


def _modified_field_components(p: PerturbedKeplerParams, v) -> tuple:
    return tuple(map(operator.sub, _field_components(p, v), _gradient_components(p, v)))


def modified_field(p: PerturbedKeplerParams, s):
    """Feedback dynamics: original field minus the Lyapunov gradient.

    Both terms come from the kernels of ``field`` and
    ``lyapunov_gradient``, so the result is bit-identical to their
    difference. Takes a tuple of floats, a state (6,) or a batch (N, 6).
    """
    return componentwise(_modified_field_components, p, s)


def _integral_values(p: PerturbedKeplerParams, v) -> tuple:
    """(E, L) at the state components v, as 4 components."""
    return invariant_components(p.potential, v)


def _jacobian_rows(p: PerturbedKeplerParams, v) -> tuple:
    """Jacobian of (E, L) at the state components v, as 4 rows of 6 components:

    grad E = (U'(r)/r x, v), then grad L_i = (-hat(v), hat(x)) row i.
    """
    x0, x1, x2, v0, v1, v2 = v
    r = radius(x0 * x0 + x1 * x1 + x2 * x2)
    c = _radial(p.potential.u_prime, r) / r
    return (
        (c * x0, c * x1, c * x2, v0, v1, v2),
        (0.0, v2, -v1, 0.0, -x2, x1),
        (-v2, 0.0, v0, x2, 0.0, -x0),
        (v1, -v0, 0.0, -x1, x0, 0.0),
    )


def integral_map(p: PerturbedKeplerParams) -> FirstIntegralMap:
    """Stacked map (E, L) of dimension 4.

    ``eval`` and ``jacobian`` take a tuple of floats, a state of shape (6,)
    or a tuple of a block's columns (see ``feedback.FirstIntegralMap``).
    """
    return FirstIntegralMap(
        dim_state=DIM, dim_values=4,
        eval=partial(componentwise, _integral_values, p),
        jacobian=partial(componentwise, _jacobian_rows, p),
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
