"""Hypothesis validators, on Python floats.

``orthogonality_report`` and ``gradient_agreement_report`` check the paper's
premises at seeded random states. ``worst_residual`` draws them one at a
time with ``SystemModel.sample_state`` and keeps the largest residual: a
NaN residual at any state becomes the report's value, so the report fails.
``check_rank_condition`` estimates the smallest singular values of the
stacked integral map's Jacobian over sample states.
"""

import math
import random
import sys
from operator import mul
from typing import NamedTuple, Sequence

from .feedback import FirstIntegralMap
from .systems import SystemModel

# ``singular_values`` runs at most this many Jacobi sweeps; the Jacobians of
# the shipped systems converge in far fewer (the method converges
# quadratically once the vectors are nearly orthogonal).
JACOBI_SWEEPS = 30


def singular_values(rows) -> list:
    """Descending singular values of the matrix given as a sequence of rows
    of floats, by one-sided Jacobi (Hestenes 1958).

    Plane rotations make the rows mutually orthogonal (the columns, where
    there are more rows than columns), and their norms are then the
    singular values, each to high relative accuracy (Demmel and Veselic,
    "Jacobi's method is more accurate than QR", 1992). A pair is rotated
    while its cosine exceeds the machine epsilon eps, in at most
    JACOBI_SWEEPS sweeps. A vector shorter than eps times the matrix's
    Frobenius norm is not rotated: its direction is rounding noise, which
    each rotation would shrink by eps again, so a rank-deficient matrix
    would never converge.
    """
    vectors = [list(row) for row in rows]
    if len(vectors) > len(vectors[0]):
        vectors = [list(column) for column in zip(*vectors)]
    eps = sys.float_info.epsilon
    negligible = (eps * math.hypot(*(x for v in vectors for x in v))) ** 2
    for _ in range(JACOBI_SWEEPS):
        rotated = False
        for i in range(len(vectors) - 1):
            for j in range(i + 1, len(vectors)):
                a, b = vectors[i], vectors[j]
                alpha, beta = sum(map(mul, a, a)), sum(map(mul, b, b))
                gamma = sum(map(mul, a, b))
                if (alpha <= negligible or beta <= negligible
                        or not abs(gamma) > eps * math.sqrt(alpha) * math.sqrt(beta)):
                    continue
                # the rotation by c = cos, s = sin, t = s / c that zeroes a . b
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                vectors[i] = [c * x - s * y for x, y in zip(a, b)]
                vectors[j] = [s * x + c * y for x, y in zip(a, b)]
                rotated = True
        if not rotated:
            break
    return sorted((math.hypot(*v) for v in vectors), reverse=True)


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
    spectra = tuple(tuple(singular_values(f.jacobian(s))) for s in samples)
    return RankReport(min_singular_value=min(spec[-1] for spec in spectra), spectra=spectra,
                      threshold=threshold)


class SampledReport(NamedTuple):
    """Worst scaled residual of a check over sampled states."""

    max_scaled_residual: float
    n_samples: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_scaled_residual <= self.tolerance


def worst_residual(system: SystemModel, n_samples: int, seed: int, residual) -> float:
    """The largest of ``residual(s)``, a float, over the first n_samples
    states s that ``system.sample_state`` draws from ``random.Random(seed)``.
    A NaN residual at any state is the result, which no tolerance passes
    (Python's ``max`` drops a NaN that comes second).
    """
    sample, rng = system.sample_state, random.Random(seed)
    worst = 0.0
    for _ in range(n_samples):
        r = residual(sample(rng))
        if r > worst or r != r:
            worst = r
    return worst


def orthogonality_report(system: SystemModel, n_samples: int = 10_000,
                         seed: int = 0, tolerance: float = 1e-12) -> SampledReport:
    """Check <grad V(x), X(x)> = 0 at sampled states (see ``worst_residual``),
    scaled by 1 + |grad V| |X|."""
    gradient, field = system.gradient, system.field

    def residual(s):
        g, f = gradient(s), field(s)
        return abs(sum(map(mul, g, f))) / (1.0 + math.hypot(*g) * math.hypot(*f))

    return SampledReport(worst_residual(system, n_samples, seed, residual), n_samples,
                         tolerance)


def gradient_agreement_report(system: SystemModel, n_samples: int = 1000,
                              seed: int = 0, tolerance: float = 1e-12) -> SampledReport:
    """Compare the analytic gradient to Df^T K (f - f0) at sampled states.

    The states are those of ``orthogonality_report`` for the same seed. The
    oracle is ``generic_gradient``, built from the integral map's ``eval``
    and ``jacobian``; the residual is |analytic - oracle| / (1 + |analytic|).
    """
    from .feedback import generic_gradient

    gradient, f, p = system.gradient, system.integral_map, system.params

    def residual(s):
        analytic = gradient(s)
        oracle = generic_gradient(f, p.K, p.f0, s)
        return math.dist(analytic, oracle) / (1.0 + math.hypot(*analytic))

    return SampledReport(worst_residual(system, n_samples, seed, residual), n_samples,
                         tolerance)
