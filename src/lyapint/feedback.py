"""Gradient-feedback synthesis for invariant-preserving integration.

A system is given by its extended vector field X on R^n together with a
stacked map f of manifold constraint plus first integrals. With a positive
diagonal gain matrix K and the reference values f0 = f(x0), the scalar

    V(x) = 0.5 * (f(x) - f0)^T K (f(x) - f0)

vanishes exactly on the invariant set through x0, and its gradient is

    grad V(x) = Df(x)^T K (f(x) - f0).

Integrating the corrected field X - grad V with any ordinary one-step scheme
keeps the numerical trajectory near that invariant set. The shipped systems
provide closed-form gradients as the production path; ``generic_gradient``
below evaluates the Jacobian-transpose formula from the map's own ``eval``
and ``jacobian`` kernels, a derivation independent of the closed forms, and
serves as the oracle they are checked against.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class FirstIntegralMap:
    """Stacked constraint-plus-integrals map f: R^dim_state -> R^dim_values.

    ``eval`` and ``jacobian`` take a state's components and give the
    dim_values values as a sequence and the Jacobian as a sequence of
    dim_values rows, row i the gradient of value i: Python floats for one
    state's floats, and for a block's columns, arrays of shape (N,) or float
    constants (an entry that is identically zero may be the float 0.0), with
    entry i of each equal to the single-state value of state i bit for bit.
    ``jacobian_transpose_apply(x, w)``, Df(x)^T w, is optional and unused
    by the library; no shipped map sets it, and ``perfbench/tracer.py``
    wraps it by name where a map does.
    """

    dim_state: int
    dim_values: int
    eval: Callable
    jacobian: Callable
    jacobian_transpose_apply: Optional[Callable] = None


@dataclass(frozen=True)
class FeedbackSpec:
    """Reference values f(x0) and the diagonal of the gain matrix K, as tuples of floats."""

    reference: tuple
    gain_diag: tuple

    def __post_init__(self):
        object.__setattr__(self, "reference", tuple(map(float, self.reference)))
        object.__setattr__(self, "gain_diag", tuple(map(float, self.gain_diag)))
        if len(self.reference) != len(self.gain_diag):
            raise ValueError("reference and gain diagonal must have equal length")
        if not all(k > 0.0 for k in self.gain_diag):
            raise ValueError("all gains must be positive")
        if not all(map(math.isfinite, self.gain_diag)):
            raise ValueError("non-finite gains")
        if not all(map(math.isfinite, self.reference)):
            raise ValueError("non-finite reference values")


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


def generic_gradient(f: FirstIntegralMap, spec: FeedbackSpec, x):
    """grad V via the Jacobian-transpose formula Df(x)^T K (f(x) - f0).

    Built from ``f.eval`` and ``f.jacobian`` alone: entry j is the sum over
    the values i, in order, of jacobian[i][j] * K_i (f_i - f0_i). x is a
    state's components: floats for one state, giving dim_state floats, or a
    block's columns, giving dim_state columns with no (N, dim_values,
    dim_state) Jacobian formed, entry i of each equal to the gradient at
    state i bit for bit.
    """
    w = [k * (fi - ri) for k, fi, ri in zip(spec.gain_diag, f.eval(x), spec.reference)]
    rows = f.jacobian(x)
    grad = [d * w[0] for d in rows[0]]
    for row, wi in zip(rows[1:], w[1:]):
        grad = [g + d * wi for g, d in zip(grad, row)]
    return tuple(grad)
