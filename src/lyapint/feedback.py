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

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .numerics import componentwise


@dataclass(frozen=True)
class FirstIntegralMap:
    """Stacked constraint-plus-integrals map f: R^dim_state -> R^dim_values.

    ``eval`` and ``jacobian`` are ``numerics.componentwise`` kernels. A
    state of shape (dim_state,) gives the dim_values values as an array and
    the Jacobian as an array (dim_values, dim_state), whose row i is the
    gradient of component i. A tuple of components gives the values as a
    sequence and the Jacobian as a sequence of rows: Python floats for a
    tuple of floats, and for a tuple of a block's columns, arrays of shape
    (N,), arrays or float constants (an entry that is identically zero may
    be the float 0.0), with entry i of each equal to the single-state value
    of state i bit for bit.
    ``jacobian_transpose_apply(x, w)``, Df(x)^T w, is optional and unused
    by the library; no shipped map sets it, and ``perfbench/tracer.py``
    wraps it by name where a map does.
    """

    dim_state: int
    dim_values: int
    eval: Callable
    jacobian: Callable
    jacobian_transpose_apply: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class FeedbackSpec:
    """Reference values f(x0) and the diagonal of the gain matrix K."""

    reference: np.ndarray
    gain_diag: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "reference", np.asarray(self.reference, dtype=float))
        object.__setattr__(self, "gain_diag", np.asarray(self.gain_diag, dtype=float))
        if self.reference.shape != self.gain_diag.shape:
            raise ValueError("reference and gain diagonal must have equal length")
        if not np.all(self.gain_diag > 0.0):
            raise ValueError("all gains must be positive")
        if not np.all(np.isfinite(self.gain_diag)):
            raise ValueError("non-finite gains")
        if not np.all(np.isfinite(self.reference)):
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


def _gradient_components(fs, v) -> tuple:
    # Df^T K (f - f0) at the state components v: column j is the sum over
    # the values i, in order, of jacobian[i][j] * K_i (f_i - f0_i)
    f, spec = fs
    v = tuple(v)
    w = [k * (fi - ri) for k, fi, ri in
         zip(spec.gain_diag.tolist(), f.eval(v), spec.reference.tolist())]
    rows = f.jacobian(v)
    grad = [d * w[0] for d in rows[0]]
    for row, wi in zip(rows[1:], w[1:]):
        grad = [g + d * wi for g, d in zip(grad, row)]
    return tuple(grad)


def generic_gradient(f: FirstIntegralMap, spec: FeedbackSpec, x):
    """grad V via the Jacobian-transpose formula Df(x)^T K (f(x) - f0).

    Built from ``f.eval`` and ``f.jacobian`` alone; x is a tuple of floats, a
    state (dim_state,) or a block (N, dim_state), handled as
    ``numerics.componentwise`` does: a block is evaluated on its columns, with
    no (N, dim_values, dim_state) Jacobian formed, and row i of the result
    equals the gradient at state i bit for bit.
    """
    return componentwise(_gradient_components, (f, spec), x)
