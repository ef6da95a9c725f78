"""One-step integration schemes and the constraint-projection wrapper.

Each scheme ``(field, x, h) -> x_next`` is written once, over a tuple x of
Python floats and a field mapping such tuples to float sequences; an array x
is stepped as its floats, with ``field`` called on arrays, and comes back as
an array. ``integrate`` is the one loop that advances a trajectory by
repeated application, and the one place where a failing step is numbered and
turned into IntegrationError. Projection wraps any base scheme and pulls the
result back onto a target level set of a first-integral map with a
simplified Newton iteration.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, ProjectionError, RankError
from .feedback import FirstIntegralMap, assemble_jacobian

# Relative cutoff below which Gram-matrix directions are treated as null.
# Constraint maps whose level sets contain whole trajectories (e.g. the
# six angular-momentum/eccentricity values of a Kepler orbit) are rank
# deficient by construction; the pseudo-inverse restricted to the usable
# spectrum still converges because the residual stays in the range.
_GRAM_CUTOFF = 1e-14


def _axpy(x, a, y) -> tuple:
    """x + a * y over component sequences, one IEEE multiply and add per component."""
    return tuple([xi + a * yi for xi, yi in zip(x, y)])


def _finite(y: tuple, scheme: str) -> tuple:
    if not all(map(math.isfinite, y)):
        raise IntegrationError(f"non-finite state after {scheme} step")
    return y


def _on_floats(fn):
    """An array-to-array function ``fn`` as a function on component sequences."""
    return lambda v: fn(np.array(v)).tolist()


def euler_step(field, x, h):
    """Forward Euler: x + h * field(x)."""
    if not isinstance(x, tuple):
        return np.array(euler_step(_on_floats(field), tuple(x.tolist()), h))
    return _finite(_axpy(x, h, field(x)), "Euler")


def rk4_step(field, x, h):
    """Classical four-stage Runge-Kutta step."""
    if not isinstance(x, tuple):
        return np.array(rk4_step(_on_floats(field), tuple(x.tolist()), h))
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
    may depend on position only. ``q`` and ``v`` are both tuples or both arrays.
    """
    if not isinstance(q, tuple):
        q1, v1 = stormer_verlet_step(_on_floats(accel), tuple(q.tolist()),
                                     tuple(v.tolist()), h, variant)
        return np.array(q1), np.array(v1)
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


@dataclass(frozen=True)
class ProjectionConfig:
    """Constraint map, target values, and Newton termination settings."""

    constraint: FirstIntegralMap
    target: np.ndarray
    tol: float
    max_iter: int = 25

    def __post_init__(self):
        if self.tol <= 0.0:
            raise ValueError("projection tolerance must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def _gram_pseudo_solver(jac):
    """Correction matrix C = J^T G^+ for G = J J^T, restricted to G's usable spectrum.

    G^+ = U diag(inv) U^T from one SVD of G, where inv drops singular values
    below ``_GRAM_CUTOFF`` relative to the largest. C has shape (n, m) for an
    (m, n) Jacobian J.
    """
    gram = jac @ jac.T
    if not np.isfinite(gram).all():
        raise IntegrationError("non-finite constraint Jacobian Gram matrix")
    u, s, _ = np.linalg.svd(gram)
    if s[0] <= 0.0:
        raise RankError("constraint Jacobian Gram matrix is numerically rank zero")
    inv = np.where(s > s[0] * _GRAM_CUTOFF, 1.0 / np.maximum(s, 1e-300), 0.0)
    return jac.T @ (u * inv) @ u.T


def projection_step(base, cfg: ProjectionConfig, field, x, h):
    """Base step followed by pull-back onto the constraint level set.

    Computes xt = base(field, x, h), then solves f(xt + Df(xt)^T lam) = target
    for lam by simplified Newton with the Gram matrix G = Df Df^T frozen at
    xt. The iteration runs on the state itself: with the correction matrix
    C = Df(xt)^T G^+ built once per step, each iteration is
    y <- y - C (f(y) - target), starting from y = xt. Returns once the
    residual norm is within cfg.tol; raises ProjectionError with the final
    residual otherwise. ``base`` steps the tuple; the Newton loop runs on an array built from xt.
    """
    if not isinstance(x, tuple):
        return np.array(projection_step(base, cfg, _on_floats(field), tuple(x.tolist()), h))
    xt = base(field, x, h)
    y = np.array(xt)
    res = cfg.constraint.eval(y) - cfg.target
    rnorm = math.sqrt(float(res @ res))
    if rnorm <= cfg.tol:
        return xt
    correction = _gram_pseudo_solver(assemble_jacobian(cfg.constraint, y))
    for _ in range(cfg.max_iter):
        y = y - correction @ res
        res = cfg.constraint.eval(y) - cfg.target
        rnorm = math.sqrt(float(res @ res))
        if rnorm <= cfg.tol:
            return tuple(y.tolist())
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

    A tuple x0 of floats is carried as tuples; any other x0 is first copied
    into a float array. ``observe(k, x)`` sees the start state (k = 0) and
    the state after every step k. A step and its observation fail together
    as step k: an ``ArithmeticError`` (float overflow, division by zero)
    becomes IntegrationError with ``step = k`` and the original error as its
    cause; any other exception gets ``step = k`` unless it already carries a
    step, and propagates unchanged.
    """
    x = x0 if isinstance(x0, tuple) else np.array(x0, dtype=float)
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
    times, states = [], []

    def record(k, x):
        if k % stride == 0 or k == n_steps:
            times.append(k * h)
            states.append(np.array(x))

    integrate(advance, x0, h, n_steps, record)
    return np.array(times), np.array(states)
