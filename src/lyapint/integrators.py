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
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import IntegrationError, ProjectionError, RankError
from .feedback import FirstIntegralMap, assemble_jacobian

# Relative cutoff below which singular values of the constraint Jacobian J
# are treated as null: sqrt(1e-14), the cutoff 1e-14 on those of the Gram
# matrix J J^T, which are their squares. Constraint maps whose level sets
# contain whole trajectories (e.g. the six angular-momentum/eccentricity
# values of a Kepler orbit) are rank deficient by construction; the
# pseudo-inverse restricted to the usable spectrum still converges because
# the residual stays in the range.
_SINGULAR_CUTOFF = math.sqrt(1e-14)


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
    # The target values as Python floats, read by every projection step.
    _target: tuple = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError("projection tolerance must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        target = np.asarray(self.target, dtype=float)
        if target.shape != (self.constraint.dim_values,):
            raise ValueError(f"projection target must hold {self.constraint.dim_values} "
                             f"values, got shape {target.shape}")
        object.__setattr__(self, "_target", tuple(target.tolist()))


def _pseudo_inverse(jac):
    """Correction matrix C = J^+ = V diag(inv) U^T from one SVD J = U diag(s) V^T.

    inv drops singular values below ``_SINGULAR_CUTOFF`` relative to the
    largest, so C equals J^T G^+ for the Gram matrix G = J J^T restricted to
    its usable spectrum. C has shape (n, m) for an (m, n) Jacobian J. The sum
    of the squared entries of J is the trace of G, finite exactly when G is.
    """
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


def projection_step(base, cfg: ProjectionConfig, field, x, h):
    """Base step followed by pull-back onto the constraint level set.

    Computes xt = base(field, x, h), then solves f(xt + Df(xt)^T lam) = target
    for lam by simplified Newton with Df frozen at xt. The iteration runs on
    the state itself: with the correction matrix C = Df(xt)^+, which is
    Df(xt)^T G^+ for G = Df Df^T, built once per step, each iteration is
    y <- y - C (f(y) - target), starting from y = xt. Returns once the
    residual norm is within cfg.tol; raises ProjectionError with the final
    residual otherwise.

    ``base`` steps the tuple, and ``cfg.constraint``'s ``eval`` and
    ``jacobian`` take tuples: each residual and its norm are Python floats.
    An array y is built from xt only when the Newton loop runs, for the
    update ``C @ residual``.
    """
    if not isinstance(x, tuple):
        return np.array(projection_step(base, cfg, _on_floats(field), tuple(x.tolist()), h))
    f, target = cfg.constraint, cfg._target
    xt = base(field, x, h)
    res = _residual(f.eval(xt), target)
    rnorm = math.hypot(*res)
    if rnorm <= cfg.tol:
        return xt
    correction = _pseudo_inverse(assemble_jacobian(f, xt))
    y = np.array(xt)
    for _ in range(cfg.max_iter):
        y = y - correction @ res
        yt = tuple(y.tolist())
        res = _residual(f.eval(yt), target)
        rnorm = math.hypot(*res)
        if rnorm <= cfg.tol:
            return yt
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
