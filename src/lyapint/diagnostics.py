"""Hypothesis validators and the step-size attractor study.

``orthogonality_report`` and ``gradient_agreement_report`` check the paper's
premises at seeded random states, drawn in blocks by
``SystemModel.sample_blocks``. ``check_rank_condition`` estimates the smallest
singular values of the stacked integral map's Jacobian over sample states.
``attractor_step_study`` measures, per step size, the level at which the
stabilizing function V plateaus when a one-step scheme integrates the
feedback field; the plateau shrinks as the step size decreases.

Each function imports numpy when it runs, so that importing this module (as
the CLI does) loads no numpy.
"""

from __future__ import annotations  # np.ndarray names numpy without importing it

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import BasinViolationError
from .feedback import FirstIntegralMap
from .integrators import integrate, steps_for
from .numerics import column_dot
from .systems import SystemModel

if TYPE_CHECKING:
    import numpy as np


def singular_values(a: np.ndarray) -> np.ndarray:
    """Descending singular values of a (LAPACK through numpy)."""
    import numpy as np

    return np.linalg.svd(a, compute_uv=False)


@dataclass(frozen=True)
class RankReport:
    """Smallest singular value of Df over the samples, with full spectra."""

    min_singular_value: float
    spectra: tuple
    threshold: float

    @property
    def passed(self) -> bool:
        return self.min_singular_value > self.threshold


def check_rank_condition(f: FirstIntegralMap, samples: Sequence,
                         threshold: float = 1e-8) -> RankReport:
    """Estimate min over samples of the smallest singular value of Df.

    Each sample is a state as a sequence of Python floats.

    PASS (report.passed) means the map is numerically a submersion at every
    sample. Maps whose joint level sets contain whole trajectories are rank
    deficient by construction and report a near-zero value; callers gate on
    the spectrum entry matching the rank they actually rely on.
    """
    import numpy as np

    spectra = []
    for s in samples:
        jac = np.asarray(f.jacobian(s), dtype=float)
        spectra.append(tuple(singular_values(jac)))
    smallest = min(spec[-1] for spec in spectra)
    return RankReport(min_singular_value=float(smallest), spectra=tuple(spectra),
                      threshold=threshold)


@dataclass(frozen=True)
class AttractorStudyResult:
    step_sizes: tuple
    plateau_values: tuple


def state_with_lyapunov(system: SystemModel, v_target: float, seed: int = 0) -> tuple:
    """Deterministic state with V equal to v_target, as a tuple of floats.

    Moves from the system's reference initial state along a fixed random
    direction and bisects the scaling until V matches to 1e-12 relative.
    """
    if v_target == 0.0:
        return system.initial_state
    if v_target < 0.0:
        raise ValueError("v_target must be nonnegative")
    import numpy as np

    x0 = np.array(system.initial_state)
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(system.dim)
    direction /= math.sqrt(float(direction @ direction))

    def state(scale):
        return tuple((x0 + scale * direction).tolist())

    def value(scale):
        return system.lyapunov(state(scale))

    hi = 1e-6
    while value(hi) < v_target:
        hi *= 2.0
        if hi > 1e9:
            raise RuntimeError("failed to bracket the requested V level")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if value(mid) < v_target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return state(hi)


def attractor_step_study(system: SystemModel, scheme: Callable,
                         step_sizes: Sequence[float], v_init: float,
                         horizon: float) -> AttractorStudyResult:
    """Plateau level of V per step size when `scheme` integrates the feedback field.

    For each h the trajectory starts at a state with V = v_init and runs to
    the horizon; the plateau is the median of V over the final tenth of the
    samples. Escaping the sublevel set V <= gain bound raises
    BasinViolationError; a step that overflows raises IntegrationError.
    """
    import numpy as np

    steps = tuple(float(h) for h in step_sizes)
    if any(b >= a for a, b in zip(steps, steps[1:])):
        raise ValueError("step sizes must be strictly decreasing")
    if v_init >= system.gain_bound:
        raise ValueError(
            f"v_init {v_init:g} is not below the gain bound {system.gain_bound:g}")
    x0 = state_with_lyapunov(system, v_init)
    plateaus = []
    for h in steps:
        n = steps_for(horizon, h)
        values = np.empty(n + 1)

        def observe(k, x):
            v = system.lyapunov(x)
            if v > system.gain_bound:
                raise BasinViolationError(
                    f"V = {v:.3e} escaped the basin bound {system.gain_bound:.3e}",
                    h=h, step=k, value=v)
            values[k] = v

        integrate(lambda x, dt: scheme(system.modified_field, x, dt), x0, h, n, observe)
        tail = values[-max(1, (n + 1) // 10):]
        plateaus.append(float(np.median(tail)))
    return AttractorStudyResult(step_sizes=steps, plateau_values=tuple(plateaus))


@dataclass(frozen=True)
class OrthogonalityReport:
    """Worst scaled residual of <grad V, X> over random states."""

    max_scaled_residual: float
    n_samples: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_scaled_residual <= self.tolerance


# States per sampled block, and so per batched evaluation, in the reports and
# the `check` validators: large enough that the per-call cost of the kernels
# vanishes, small enough that the blocks do not raise the peak memory of a
# `check` run.
ORTHOGONALITY_BLOCK = 1000


def orthogonality_report(system: SystemModel, n_samples: int = 10_000,
                         seed: int = 0, tolerance: float = 1e-12) -> OrthogonalityReport:
    """Check <grad V(x), X(x)> = 0 at sampled states, scaled by 1 + |grad V| |X|.

    The states are the first n_samples that ``system.sample_state`` draws
    from ``default_rng(seed)``. ``system.sample_blocks`` draws them in blocks
    of ORTHOGONALITY_BLOCK, each evaluated with one gradient and one field
    call on the block's columns; the inner products are summed over the
    result columns, with no (N, dim) result formed.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    worst = 0.0
    for block in system.sample_blocks(rng, n_samples, ORTHOGONALITY_BLOCK):
        columns = tuple(block.T)
        g = system.gradient(columns)
        f = system.field(columns)
        scale = 1.0 + np.sqrt(column_dot(g, g)) * np.sqrt(column_dot(f, f))
        worst = max(worst, float((np.abs(column_dot(g, f)) / scale).max()))
    return OrthogonalityReport(max_scaled_residual=worst, n_samples=n_samples,
                               tolerance=tolerance)


@dataclass(frozen=True)
class GradientAgreementReport:
    """Worst scaled difference between the analytic gradient and Df^T K (f - f0)."""

    max_scaled_difference: float
    n_samples: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_scaled_difference <= self.tolerance


def gradient_agreement_report(system: SystemModel, n_samples: int = 1000,
                              seed: int = 0, tolerance: float = 1e-12) -> GradientAgreementReport:
    """Compare the analytic gradient to Df^T K (f - f0) at sampled states.

    The states are those of ``orthogonality_report`` for the same seed, in
    the same blocks. Each block gets one analytic gradient and one
    ``generic_gradient`` call on its columns, the oracle built from the
    integral map's ``eval`` and ``jacobian``. Both are stacked into
    C-contiguous (N, dim) arrays, whose rows equal the single-state results
    bit for bit, and the difference is measured row by row.
    """
    import numpy as np

    from .feedback import generic_gradient

    rng = np.random.default_rng(seed)
    worst = 0.0
    for block in system.sample_blocks(rng, n_samples, ORTHOGONALITY_BLOCK):
        columns = tuple(block.T)
        analytic = np.stack(system.gradient(columns), axis=1)
        oracle = np.stack(generic_gradient(
            system.integral_map, system.params.K, system.params.f0, columns), axis=1)
        for ga, gg in zip(analytic, oracle):
            diff = math.sqrt(float((ga - gg) @ (ga - gg)))
            scale = 1.0 + math.sqrt(float(ga @ ga))
            worst = max(worst, diff / scale)
    return GradientAgreementReport(max_scaled_difference=worst, n_samples=n_samples,
                                   tolerance=tolerance)
