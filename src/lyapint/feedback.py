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
below evaluates the Jacobian-transpose formula directly and doubles as a
cross-check oracle for those closed forms.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class FirstIntegralMap:
    """Stacked constraint-plus-integrals map f: R^dim_state -> R^dim_values.

    ``jacobian_transpose_apply(x, w)`` returns Df(x)^T w and must be linear
    in ``w``. ``jacobian``, when given, returns the full Jacobian with row i
    equal to the gradient of component i; otherwise rows are assembled from
    Jacobian-transpose products with basis vectors.
    """

    dim_state: int
    dim_values: int
    eval: Callable[[np.ndarray], np.ndarray]
    jacobian_transpose_apply: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None


def assemble_jacobian(f: FirstIntegralMap, x: np.ndarray) -> np.ndarray:
    """Full (dim_values, dim_state) Jacobian of f at x."""
    if f.jacobian is not None:
        return f.jacobian(x)
    rows = np.empty((f.dim_values, f.dim_state))
    w = np.zeros(f.dim_values)
    for i in range(f.dim_values):
        w[i] = 1.0
        rows[i] = f.jacobian_transpose_apply(x, w)
        w[i] = 0.0
    return rows


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
        if not np.all(np.isfinite(self.reference)):
            raise ValueError("non-finite reference values")


def lyapunov_value(f: FirstIntegralMap, spec: FeedbackSpec, x: np.ndarray) -> float:
    """V(x) = 0.5 * (f(x) - f0)^T K (f(x) - f0); nonnegative, zero on the level set."""
    d = f.eval(x) - spec.reference
    return 0.5 * float(d @ (spec.gain_diag * d))


def generic_gradient(f: FirstIntegralMap, spec: FeedbackSpec, x: np.ndarray) -> np.ndarray:
    """grad V via the Jacobian-transpose formula Df(x)^T K (f(x) - f0)."""
    d = f.eval(x) - spec.reference
    return f.jacobian_transpose_apply(x, spec.gain_diag * d)


@dataclass(frozen=True)
class FeedbackField:
    """Corrected vector field x -> base_field(x) - gradient(x).

    On the invariant set the gradient vanishes and evaluation reproduces
    ``base_field`` exactly.
    """

    base_field: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.base_field(x) - self.gradient(x)


def make_feedback_field(base, grad) -> FeedbackField:
    return FeedbackField(base_field=base, gradient=grad)
