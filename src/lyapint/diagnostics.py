"""Hypothesis validators.

``orthogonality_report`` and ``gradient_agreement_report`` check the paper's
premises at seeded random states, drawn in blocks by
``SystemModel.sample_blocks``. ``worst_residual`` reduces each block with
numpy and keeps the largest residual: a NaN or inf residual at any state
becomes the report's value, so the report fails. ``check_rank_condition``
estimates the smallest singular values of the stacked integral map's
Jacobian over sample states.

Each function imports numpy when it runs, so that importing this module (as
a `check` does) loads no numpy.
"""

from __future__ import annotations  # np.ndarray names numpy without importing it

from typing import TYPE_CHECKING, NamedTuple, Sequence

from .feedback import FirstIntegralMap
from .numerics import column_dot
from .systems import SystemModel

if TYPE_CHECKING:
    import numpy as np


def singular_values(a: np.ndarray) -> np.ndarray:
    """Descending singular values of a (LAPACK through numpy)."""
    import numpy as np

    return np.linalg.svd(a, compute_uv=False)


class RankReport(NamedTuple):
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


class SampledReport(NamedTuple):
    """Worst scaled residual of a check over sampled states."""

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
SAMPLE_BLOCK = 1000


def worst_residual(system: SystemModel, n_samples: int, seed: int, residuals) -> float:
    """The largest of ``residuals(columns)``, an array of one residual per
    state, over the first n_samples states that ``system.sample_state``
    draws from ``default_rng(seed)``. ``system.sample_blocks`` draws them in
    blocks of SAMPLE_BLOCK, and ``residuals`` gets each block's columns. A
    NaN residual at any state is the result, which no tolerance passes
    (Python's ``max`` drops a NaN that comes second).
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    worst = 0.0
    for block in system.sample_blocks(rng, n_samples, SAMPLE_BLOCK):
        worst = float(np.maximum(worst, residuals(tuple(block.T)).max()))
    return worst


def orthogonality_report(system: SystemModel, n_samples: int = 10_000,
                         seed: int = 0, tolerance: float = 1e-12) -> SampledReport:
    """Check <grad V(x), X(x)> = 0 at sampled states (see ``worst_residual``),
    scaled by 1 + |grad V| |X|.

    Each block is evaluated with one gradient and one field call on its
    columns; the inner products are summed over the result columns, with no
    (N, dim) result formed.
    """
    import numpy as np

    def residuals(columns):
        g, f = system.gradient(columns), system.field(columns)
        scale = 1.0 + np.sqrt(column_dot(g, g)) * np.sqrt(column_dot(f, f))
        return np.abs(column_dot(g, f)) / scale

    return SampledReport(worst_residual(system, n_samples, seed, residuals), n_samples,
                         tolerance)


def gradient_agreement_report(system: SystemModel, n_samples: int = 1000,
                              seed: int = 0, tolerance: float = 1e-12) -> SampledReport:
    """Compare the analytic gradient to Df^T K (f - f0) at sampled states.

    The states are those of ``orthogonality_report`` for the same seed, in
    the same blocks. Each block gets one analytic gradient and one
    ``generic_gradient`` call on its columns, the oracle built from the
    integral map's ``eval`` and ``jacobian``. Both are stacked into
    C-contiguous (N, dim) arrays, whose rows equal the single-state results
    bit for bit, and each row's norms come from ``np.vecdot``, which sums a
    row as ``row @ row`` does.
    """
    import numpy as np

    from .feedback import generic_gradient

    def residuals(columns):
        analytic = np.stack(system.gradient(columns), axis=1)
        oracle = np.stack(generic_gradient(
            system.integral_map, system.params.K, system.params.f0, columns), axis=1)
        diff = analytic - oracle
        return np.sqrt(np.vecdot(diff, diff)) / (1.0 + np.sqrt(np.vecdot(analytic, analytic)))

    return SampledReport(worst_residual(system, n_samples, seed, residuals), n_samples,
                         tolerance)
