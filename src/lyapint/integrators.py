"""One-step integration schemes and the constraint-projection wrapper.

Each scheme ``(field, x, h) -> x_next`` steps a state x given as a tuple of
Python floats, with a field mapping such tuples to float sequences, and
returns a tuple; Euler and RK4 also take a known first stage field(x). ``integrate`` is the one loop that advances a trajectory by
repeated application, and the one place where a failing step is numbered and
turned into IntegrationError. Projection takes an Euler step and pulls the
result back onto a target level set of a first-integral map with a
simplified Newton iteration.

numpy is imported only where arrays are made: by a projection step whose
Newton loop runs, and by ``rollout``.
"""

import math
import numbers

from .errors import IntegrationError, ProjectionError, RankError
from .feedback import FirstIntegralMap

# Relative cutoff below which singular values of the constraint Jacobian J
# are treated as null: sqrt(1e-14), the cutoff 1e-14 on those of the Gram
# matrix J J^T, which are their squares. Constraint maps whose level sets
# contain whole trajectories (e.g. the six angular-momentum/eccentricity
# values of a Kepler orbit) are rank deficient by construction; the
# pseudo-inverse restricted to the usable spectrum still converges because
# the residual stays in the range.
_SINGULAR_CUTOFF = math.sqrt(1e-14)

# A projection iteration that does not bring the residual norm below this
# fraction of the one before rebuilds the correction matrix at its iterate:
# simplified Newton's contraction condition (Deuflhard, *Newton Methods for
# Nonlinear Problems*, section 2.1).
_CONTRACTION = 0.5


def _axpy(x, a, y) -> tuple:
    """x + a * y over component sequences, one IEEE multiply and add per component."""
    return tuple([xi + a * yi for xi, yi in zip(x, y)])


def _finite(y: tuple, scheme: str) -> tuple:
    if not all(map(math.isfinite, y)):
        raise IntegrationError(f"non-finite state after {scheme} step")
    return y


def euler_step(field, x, h, k1=None):
    """Forward Euler: x + h * field(x); ``k1``, if given, is field(x)."""
    if k1 is None:
        k1 = field(x)
    return _finite(_axpy(x, h, k1), "Euler")


def rk4_step(field, x, h, k1=None):
    """Classical four-stage Runge-Kutta step; ``k1``, if given, is the first
    stage field(x), and only stages 2-4 call field."""
    if k1 is None:
        k1 = field(x)
    k2 = field(_axpy(x, 0.5 * h, k1))
    k3 = field(_axpy(x, 0.5 * h, k2))
    k4 = field(_axpy(x, h, k3))
    slope = [a + 2.0 * b + 2.0 * c + d for a, b, c, d in zip(k1, k2, k3, k4)]
    return _finite(_axpy(x, h / 6.0, slope), "RK4")


def stormer_verlet_step(accel, q, v, h, variant="A"):
    """One step of a Stormer-Verlet scheme for q'' = accel(q).

    Variant A is kick-drift-kick: a velocity half-step, a full position
    update, then the closing velocity half-step. Variant B is its adjoint,
    drift-kick-drift. Both are second order and symplectic; the acceleration
    may depend on position only. ``q`` and ``v`` are tuples of floats.
    """
    if variant == "A":
        vh = _axpy(v, 0.5 * h, accel(q))
        q1 = _axpy(q, h, vh)
        v1 = _axpy(vh, 0.5 * h, accel(q1))
    elif variant == "B":
        qh = _axpy(q, 0.5 * h, v)
        v1 = _axpy(v, h, accel(qh))
        q1 = _axpy(qh, 0.5 * h, v1)
    else:
        raise ValueError(f"unknown Stormer-Verlet variant {variant!r}")
    _finite(q1 + v1, "Stormer-Verlet")
    return q1, v1


class ProjectionConfig:
    """Constraint map, target values (a tuple of floats), and Newton termination settings."""

    __slots__ = ("constraint", "target", "tol", "max_iter")

    def __init__(self, constraint: FirstIntegralMap, target, tol: float, max_iter: int = 25):
        if not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol > 0.0):
            raise ValueError(f"projection tol must be positive and finite, got {tol!r}")
        if not isinstance(max_iter, numbers.Integral):
            raise ValueError(f"projection max_iter must be an integer, got {max_iter!r}")
        if max_iter < 1:
            raise ValueError(f"projection max_iter must be at least 1, got {max_iter!r}")
        n = constraint.dim_values
        try:
            values = tuple(target)
        except TypeError:  # a scalar
            values = ()
        if len(values) != n or not all(isinstance(v, numbers.Real) for v in values):
            raise ValueError(f"projection target must hold {n} values, got {target!r}")
        self.constraint = constraint
        self.target = tuple(map(float, values))
        self.tol = tol
        self.max_iter = max_iter


def _pseudo_inverse(jac):
    """Correction matrix C = J^+ = V diag(inv) U^T from one SVD J = U diag(s) V^T.

    inv drops singular values below ``_SINGULAR_CUTOFF`` relative to the
    largest, so C equals J^T G^+ for the Gram matrix G = J J^T restricted to
    its usable spectrum. C has shape (n, m) for an (m, n) Jacobian J. The sum
    of the squared entries of J is the trace of G, finite exactly when G is.
    """
    import numpy as np

    if not math.isfinite(float(np.vdot(jac, jac))):
        raise IntegrationError("non-finite constraint Jacobian Gram matrix")
    u, s, vt = np.linalg.svd(jac, full_matrices=False)
    sv = s.tolist()
    if sv[0] <= 0.0:
        raise RankError("constraint Jacobian Gram matrix is numerically rank zero")
    k = sum(si > sv[0] * _SINGULAR_CUTOFF for si in sv)
    return (vt[:k].T / s[:k]) @ u[:, :k].T


def _residual(values, target) -> list:
    return [v - t for v, t in zip(values, target)]


def projection_step(cfg: ProjectionConfig, field, x, h):
    """Euler step followed by pull-back onto the constraint level set.

    Computes xt = euler_step(field, x, h), then solves f(y) = target by
    simplified Newton on the state itself: with the correction matrix
    C = Df(xt)^+, which is Df(xt)^T G^+ for G = Df Df^T, each iteration is
    y <- y - C (f(y) - target), starting from y = xt. An iteration that
    fails to shrink the residual norm by the factor ``_CONTRACTION``
    rebuilds C at its y; cfg.max_iter bounds the iterations in all. Returns
    once the residual norm is within cfg.tol; raises ProjectionError with
    the final residual otherwise.

    The Euler step is on the tuple, and ``cfg.constraint``'s ``eval`` and
    ``jacobian`` take tuples: each residual and its norm are Python floats.
    Only when the Newton loop runs is numpy imported and an array y built
    from xt, for the update ``C @ residual``; a step that lands within
    cfg.tol needs no numpy.
    """
    f, target = cfg.constraint, cfg.target
    xt = euler_step(field, x, h)
    res = _residual(f.eval(xt), target)
    rnorm = math.hypot(*res)
    if rnorm <= cfg.tol:
        return xt
    import numpy as np

    correction = _pseudo_inverse(np.asarray(f.jacobian(xt), dtype=float))
    y = np.array(xt)
    for _ in range(cfg.max_iter):
        y = y - correction @ res
        yt = tuple(y.tolist())
        res = _residual(f.eval(yt), target)
        previous, rnorm = rnorm, math.hypot(*res)
        if rnorm <= cfg.tol:
            return yt
        if rnorm > _CONTRACTION * previous:
            correction = _pseudo_inverse(np.asarray(f.jacobian(yt), dtype=float))
    raise ProjectionError(
        f"projection residual {rnorm:.3e} above tolerance {cfg.tol:.3e} "
        f"after {cfg.max_iter} iterations",
        residual=rnorm,
    )


def steps_for(t_end: float, h: float) -> int:
    """floor(t_end / h) with a guard against float dust in the quotient."""
    return int(math.floor(t_end / h + 1e-9))


def integrate(advance, x0, h, n_steps, observe):
    """Advance ``x = advance(x, h)`` n_steps times from x0; return the final state.

    x0 is a tuple of Python floats, and ``advance`` maps such a tuple to the
    next one; any other x0 raises TypeError, as an array's numpy scalars
    would overflow to inf with a warning instead of raising. ``observe(k, x)``
    sees the start state (k = 0) and the state after every step k. A step
    and its observation fail together as step k: an ``ArithmeticError``
    (float overflow, division by zero) becomes IntegrationError with
    ``step = k`` and the original error as its cause; any other exception
    gets ``step = k`` unless it already carries a step, and propagates
    unchanged.
    """
    if type(x0) is not tuple or not all(type(c) is float for c in x0):
        raise TypeError(f"start state must be a tuple of Python floats, got {x0!r}")
    x = x0
    observe(0, x)
    try:
        for k in range(1, n_steps + 1):
            x = advance(x, h)
            observe(k, x)
    except ArithmeticError as exc:
        raise IntegrationError(f"{type(exc).__name__} during step: {exc}", step=k) from exc
    except Exception as exc:
        if getattr(exc, "step", None) is None:
            exc.step = k
        raise
    return x


def rollout(advance, x0, h, n_steps, stride=1):
    """``integrate`` recording every ``stride``-th state; returns (times, states) as arrays.

    Step 0 and the final step are always recorded.
    """
    import numpy as np

    times, states = [], []

    def record(k, x):
        if k % stride == 0 or k == n_steps:
            times.append(k * h)
            states.append(np.array(x))

    integrate(advance, x0, h, n_steps, record)
    return np.array(times), np.array(states)
