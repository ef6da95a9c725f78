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
potential. ``check_hypothesis`` tests this numerically on a bracket.
"""

import math
import operator
from dataclasses import dataclass, field as dataclass_field, replace
from functools import partial

from .errors import DomainError
from .feedback import FirstIntegralMap, check_gains_and_targets, lyapunov_value
from .numerics import dot, norm, radius

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
        check_gains_and_targets({"k1": self.k1, "k2": self.k2}, self.f0)
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


def lyapunov(p: PerturbedKeplerParams, s) -> float:
    """V at a state, from its integrals (E, L)."""
    return lyapunov_value(p.K, p.f0, invariant_components(p, s))


def drift_metrics(p: PerturbedKeplerParams, s0):
    """``drift(s)``: |E - E(s0)|, |L - L(s0)| and V at a state, from one
    ``invariant_components`` call on its floats."""
    K, f0 = p.K, p.f0
    E_start, L0x, L0y, L0z = invariant_components(p, s0)

    def drift(s):
        integrals = invariant_components(p, s)
        E, l0, l1, l2 = integrals
        u0, u1, u2 = l0 - L0x, l1 - L0y, l2 - L0z
        return {
            "dE": abs(E - E_start),
            "dL": math.sqrt(u0 * u0 + u1 * u1 + u2 * u2),
            "V": lyapunov_value(K, f0, integrals),
        }

    return drift


def period(p: PerturbedKeplerParams) -> float:
    """Radial period estimate from the osculating Kepler ellipse of energy
    E0: a = -mu / (2 E0) and T = 2 pi sqrt(a^3 / mu), exact at delta = 0
    and adequate for choosing desk-scale horizons (a = 1 if E0 >= 0)."""
    a = -p.mu / (2.0 * p.E0) if p.E0 < 0.0 else 1.0
    return 2.0 * math.pi * math.sqrt(a**3 / p.mu)


def gain_bound(p: PerturbedKeplerParams) -> float:
    """No sublevel bound is known for this system."""
    return math.inf


def lyapunov_gradient(p: PerturbedKeplerParams, v) -> tuple:
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
    e = p.k1 * (0.5 * (v0 * v0 + v1 * v1 + v2 * v2) + _radial(u, p, r) - E0)
    c = e * _radial(u_prime, p, r) / r
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


# accel and modified_field call the kernels by these names, so that wrapping
# the public ones in place (as perfbench/tracer.py does) counts only outside calls
_field, _gradient = field, lyapunov_gradient


def modified_field(p: PerturbedKeplerParams, v) -> tuple:
    """Feedback dynamics: original field minus the Lyapunov gradient, bit-identical
    to the difference of ``field`` and ``lyapunov_gradient``."""
    return tuple(map(operator.sub, _field(p, v), _gradient(p, v)))


def accel(p: PerturbedKeplerParams, q) -> tuple:
    """Position-only acceleration -U'(|q|) q / |q|."""
    return _field(p, (*q, 0.0, 0.0, 0.0))[3:]


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


def integral_map(p: PerturbedKeplerParams) -> FirstIntegralMap:
    """Stacked map (E, L) of dimension 4."""
    return FirstIntegralMap(
        dim_state=DIM, dim_values=4,
        eval=partial(invariant_components, p),
        jacobian=partial(_jacobian_rows, p),
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
    import numpy as np

    l0sq = dot(p.L0, p.L0)

    def g(r):
        value = r**3 * u_prime(p, r) - l0sq
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
        energy_at_root = 0.5 * r * u_prime(p, r) + u(p, r)
        residuals.append(abs(p.E0 - energy_at_root))
    satisfied = all(res > HYPOTHESIS_RESIDUAL_TOL for res in residuals)
    return HypothesisReport(
        satisfied=satisfied,
        roots=tuple(roots),
        residuals=tuple(residuals),
        bracket=(float(r_min), float(r_max)),
        residual_tol=HYPOTHESIS_RESIDUAL_TOL,
    )
