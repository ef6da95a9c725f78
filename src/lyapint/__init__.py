"""Invariant-preserving numerical integration via Lyapunov gradient feedback.

The package extends dynamics from a manifold to its ambient Euclidean space
and subtracts the gradient of a quadratic penalty on constraint and
first-integral errors, so that any ordinary one-step scheme (Euler, RK4, ...)
keeps trajectories near the invariant set of the initial condition. Shipped
systems: the free rigid body, the Kepler problem, and a rotationally
symmetric perturbed Kepler problem, plus projection / splitting /
Stormer-Verlet baselines and an experiment CLI.
"""

from .errors import (
    BasinViolationError,
    ConfigError,
    DomainError,
    IntegrationError,
    ProjectionError,
    RankError,
)
from .feedback import FirstIntegralMap, generic_gradient, lyapunov_value
from .integrators import (
    ProjectionConfig,
    euler_step,
    integrate,
    projection_step,
    rk4_step,
    rollout,
    steps_for,
    stormer_verlet_step,
)
from .systems import SystemModel, make_system

__all__ = [
    "BasinViolationError", "ConfigError", "DomainError", "IntegrationError",
    "ProjectionError", "RankError",
    "FirstIntegralMap", "generic_gradient", "lyapunov_value",
    "ProjectionConfig", "euler_step", "integrate", "projection_step", "rk4_step",
    "rollout", "steps_for", "stormer_verlet_step",
    "SystemModel", "make_system",
]

__version__ = "0.1.0"
