"""Gradient-feedback synthesis for invariant-preserving integration.

A system is given by its extended vector field X on R^n together with a
stacked map f of manifold constraint plus first integrals. With a positive
diagonal gain matrix K and the reference values f0, the scalar

    V(x) = 0.5 * (f(x) - f0)^T K (f(x) - f0)

vanishes exactly on the invariant set {f = f0}, and its gradient is

    grad V(x) = Df(x)^T K (f(x) - f0).

Integrating the corrected field X - grad V with any ordinary one-step scheme
keeps the numerical trajectory near that invariant set. The reference
values are the first integrals at the start x0, and the constraint's own
value on the manifold: the rigid body's nine R^T R - I targets are exact
zeros, not f(x0), so its set is the orthogonal matrices even where the
start's attitude is orthogonal only to rounding. Each system's params
state K's diagonal and f0 once, as ``params.K`` and ``params.f0`` in the
map's order, and check them and the constants with ``check_params``; the
functions below take them as they are. The shipped systems provide
closed-form gradients as the production path; ``generic_gradient`` below
evaluates the Jacobian-transpose formula from the map's own ``eval`` and
``jacobian`` kernels, a derivation independent of the closed forms, and
serves as the oracle they are checked against. Each system module states
its physics once, as kernels: ``derive_system`` gives it the three that
the model calls through the module, and ``systems.make_system`` composes
the rest.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class FirstIntegralMap:
    """Stacked constraint-plus-integrals map f: R^dim_state -> R^dim_values.

    ``eval`` and ``jacobian`` take a state's components as Python floats
    and give the dim_values values as a sequence of floats and the Jacobian
    as a sequence of dim_values rows of floats, row i the gradient of value
    i. ``jacobian_transpose_apply(x, w)``, Df(x)^T w, is optional and unused
    by the library; no shipped map sets it, and ``perfbench/tracer.py``
    wraps it by name where a map does.
    """

    dim_state: int
    dim_values: int
    eval: Callable
    jacobian: Callable
    jacobian_transpose_apply: Optional[Callable] = None


def lyapunov_value(gains, target, values) -> float:
    """V = 0.5 * sum_i K_i (f_i - f0_i)^2 for the gains K, the targets f0 and
    the integral map's values f, in the map's order; values past the last
    gain are not read. Each system's ``lyapunov`` and drift ``V`` column
    call it on Python floats."""
    total = 0.0
    i = 0  # indexing costs less per call than zipping three sequences
    for k in gains:
        d = values[i] - target[i]
        total += k * d * d
        i += 1
    return 0.5 * total


def check_params(constants: dict, gains: dict, target) -> None:
    """Raise ValueError unless each named constant (a float or a tuple of
    floats) is finite, each named gain is positive and finite and each
    target value is finite; each system's params call it on their
    constants, gains and f0."""
    for name, c in constants.items():
        if not all(map(math.isfinite, c if isinstance(c, tuple) else (c,))):
            raise ValueError(f"constant {name} must be finite, got {c!r}")
    for name, k in gains.items():
        if not 0.0 < k < math.inf:  # false for nan too
            raise ValueError(f"gain {name} must be positive and finite, got {k!r}")
    if not all(map(math.isfinite, target)):
        raise ValueError(f"non-finite target values f(x0) = {tuple(target)}")


def generic_gradient(f: FirstIntegralMap, gains, target, x):
    """grad V via the Jacobian-transpose formula Df(x)^T K (f(x) - f0).

    ``gains`` and ``target`` are K's diagonal and f0, the params' ``K`` and
    ``f0``, as for ``lyapunov_value``. Built from ``f.eval`` and
    ``f.jacobian`` alone: entry j is the sum over the values i, in order, of
    jacobian[i][j] * K_i (f_i - f0_i), for the state x as floats, giving
    dim_state floats.
    """
    w = [k * (fi - ri) for k, fi, ri in zip(gains, f.eval(x), target)]
    rows = f.jacobian(x)
    grad = [d * w[0] for d in rows[0]]
    for row, wi in zip(rows[1:], w[1:]):
        grad = [g + d * wi for g, d in zip(grad, row)]
    return tuple(grad)


def derive_system(feedback, values):
    """The kernels a system's model calls through its module, each taking
    the params first: ``(modified_field, lyapunov_gradient, lyapunov)``.

    ``feedback(p, s) -> (field, gradient, values)`` is the fused kernel:
    the feedback field X - grad V, grad V and the integral values at the
    state components s, which ``values(p, s)`` gives alone, bit for bit; V
    is ``lyapunov_value`` of them. Each function calls the kernel it was
    given, so a wrapper set on a module's name in place (as
    perfbench/tracer.py sets) counts only the calls made through that name.
    """

    def modified_field(p, v):
        return feedback(p, v)[0]

    def lyapunov_gradient(p, v):
        return feedback(p, v)[1]

    def lyapunov(p, s):
        return lyapunov_value(p.K, p.f0, values(p, s))

    return modified_field, lyapunov_gradient, lyapunov
