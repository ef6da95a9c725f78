"""One-step integration schemes and the constraint-projection wrapper.

Each scheme ``(field, x, h) -> x_next`` steps a state x given as a tuple of
Python floats, with a field mapping such tuples to float sequences, and
returns a tuple; Euler and RK4 also take a known first stage field(x).
``integrate`` is the one loop that advances a trajectory by repeated
application, and the one place where a failing step is numbered and turned
into IntegrationError. Projection takes an Euler step and pulls the result
back onto a target level set of a first-integral map with a simplified
Newton iteration, whose pseudo-inverse correction is Gram-Schmidt on Python
floats: the constraint Jacobians are a few rows of 6 or 12 entries, smaller
than numpy's per-call overhead. That Gram-Schmidt is straight-line code,
generated and compiled once per Jacobian shape and pattern of kept rows
(``_pseudo_inverse``), with the loop form's operations in its order.
"""

import functools
import math
import numbers
from operator import sub

from .errors import IntegrationError, ProjectionError, RankError
from .feedback import FirstIntegralMap

# Cutoff, relative to the Frobenius norm of the constraint Jacobian J, below
# which a row's Gram-Schmidt remainder adds no direction: sqrt(1e-14), as
# 1e-14 on the singular values of the Gram matrix J J^T, the squares of J's.
# Constraint maps whose level sets contain whole trajectories (e.g. the six
# angular-momentum/eccentricity values of a Kepler orbit) are rank deficient
# by construction; the pseudo-inverse restricted to the rows' usable span
# still converges because the residual stays in the range.
_SINGULAR_CUTOFF = math.sqrt(1e-14)

# A projection iteration that does not bring the residual norm below this
# fraction of the one before rebuilds the correction at its iterate:
# simplified Newton's contraction condition (Deuflhard, *Newton Methods for
# Nonlinear Problems*, section 2.1).
_CONTRACTION = 0.5


def _axpy(x, a, y) -> tuple:
    """x + a * y over component sequences, one IEEE multiply and add per component."""
    return tuple([xi + a * yi for xi, yi in zip(x, y)])


def _finite(y: tuple, scheme: str) -> tuple:
    if not all(map(math.isfinite, y)):
        raise IntegrationError(f"non-finite state after {scheme} step")
    return y


def euler_step(field, x, h, k1=None):
    """Forward Euler: x + h * field(x); ``k1``, if given, is field(x)."""
    if k1 is None:
        k1 = field(x)
    return _finite(_axpy(x, h, k1), "Euler")


def rk4_step(field, x, h, k1=None):
    """Classical four-stage Runge-Kutta step; ``k1``, if given, is the first
    stage field(x), and only stages 2-4 call field."""
    if k1 is None:
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
    may depend on position only. ``q`` and ``v`` are tuples of floats.
    """
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


class ProjectionConfig:
    """Constraint map, target values (a tuple of floats), and Newton termination settings."""

    __slots__ = ("constraint", "target", "tol", "max_iter")

    def __init__(self, constraint: FirstIntegralMap, target, tol: float, max_iter: int = 25):
        if not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol > 0.0):
            raise ValueError(f"projection tol must be positive and finite, got {tol!r}")
        if not isinstance(max_iter, numbers.Integral):
            raise ValueError(f"projection max_iter must be an integer, got {max_iter!r}")
        if max_iter < 1:
            raise ValueError(f"projection max_iter must be at least 1, got {max_iter!r}")
        n = constraint.dim_values
        try:
            values = tuple(target)
        except TypeError:  # a scalar
            values = ()
        if len(values) != n or not all(isinstance(v, numbers.Real) for v in values):
            raise ValueError(f"projection target must hold {n} values, got {target!r}")
        self.constraint = constraint
        self.target = tuple(map(float, values))
        self.tol = tol
        self.max_iter = max_iter


def _dot(pairs) -> str:
    """Source of ``sum(map(mul, a, b))`` for the pairs of names (a_i, b_i):
    ``0.0 + a0 * b0 + a1 * b1 + ...``, the start and order in which ``sum``
    adds floats up to Python 3.11 (3.12's compensates), and ``sum``'s int 0
    for no pairs."""
    return " + ".join(["0.0", *(f"{a} * {b}" for a, b in pairs)]) if pairs else "0"


def _gram_schmidt_source(vectors, kept, tested: bool, q: str, t: str, v: str):
    """Modified Gram-Schmidt (Golub and Van Loan, section 5.2) as straight-line
    source on vectors given as lists of names; returns (lines, coefficients).

    Vector i is reduced against the basis built from the vectors before it,
    its remainder held in ``{v}0, {v}1, ...``. coefficients[i] lists the
    names of its coefficients on those basis vectors and, where i is in
    ``kept``, ends with the name of its remainder's norm, and the normalized
    remainder joins the basis as ``{q}{b}_0, {q}{b}_1, ...``. So vector i is
    the sum of coefficients[i][b] times basis vector b, up to the dropped
    remainder of a vector not kept. A dropped vector whose norm is above
    ``cutoff``, and, where ``tested``, a kept one whose norm is not, is
    appended to the list ``miss``. The kept one then takes the norm 1.0: its
    basis vector is as small as its remainder, so the code goes on nearly as
    if it were dropped, and divides by no zero.
    """
    lines, coefficients, k = [], [], 0
    for i, x in enumerate(vectors):
        row = []
        for b in range(k):
            basis = [f"{q}{b}_{c}" for c in range(len(x))]
            row.append(f"{t}{i}_{b}")
            lines.append(f"{row[-1]} = {_dot(list(zip(x, basis)))}")
            lines += [f"{v}{c} = {a} - {row[-1]} * {e}" for c, (a, e) in enumerate(zip(x, basis))]
            x = [f"{v}{c}" for c in range(len(x))]
        norm = f"hypot({', '.join(x)})"
        if i not in kept:
            lines += [f"if {norm} > cutoff:", f"    miss.append({i})"]
        else:
            row.append(f"{t}{i}_{k}")
            lines.append(f"{row[-1]} = {norm}")
            if tested:
                lines += [f"if not {row[-1]} > cutoff:", f"    miss.append({i})",
                          f"    {row[-1]} = 1.0"]
            lines += [f"{q}{k}_{c} = {a} / {row[-1]}" for c, a in enumerate(x)]
            k += 1
        coefficients.append(row)
    return lines, coefficients


def _source(m: int, n: int, kept: tuple) -> str:
    """Source of ``build(jac)``: the correction of ``_pseudo_inverse`` for an
    (m, n) Jacobian whose row Gram-Schmidt keeps the rows ``kept``, built
    from these integers alone. ``build`` returns the correction, or the
    list of the rows whose cutoff tests disagree with ``kept``."""
    rows = [[f"j{i}_{c}" for c in range(n)] for i in range(m)]
    factor, t = _gram_schmidt_source(rows, kept, True, "q", "t", "v")
    factor += ["if miss:", "    return miss"]
    r = [f"r{i}" for i in range(m)]
    k = len(kept)
    if k == m:  # T square lower triangular: forward substitution
        solve = [f"z{i} = ({r[i]} - ({_dot([(a, f'z{j}') for j, a in enumerate(row[:-1])])}))"
                 f" / {row[-1]}" for i, row in enumerate(t)]
    else:
        # T = P R on T's columns, zero-padded to k entries per row, with R's
        # column j named s{j}_0, s{j}_1, ...; T has full column rank (its
        # kept rows are lower triangular with diagonal above the cutoff), so
        # every column joins P and none is tested
        columns = [[row[j] if j < len(row) else "0.0" for row in t] for j in range(k)]
        lines, s = _gram_schmidt_source(columns, range(k), False, "p", "s", "w")
        factor += lines
        solve = [f"z{j} = {_dot([(f'p{j}_{i}', r[i]) for i in range(m)])}" for j in range(k)]
        for j in reversed(range(k)):  # R^{-1} (P^T r) by back substitution
            solve.append(f"z{j} = z{j} / {s[j][j]}")
            solve += [f"z{i} = z{i} - {s[j][i]} * z{j}" for i in range(j)]
    correction = [_dot([(f"q{b}_{c}", f"z{b}") for b in range(k)]) for c in range(n)]
    unpack = ", ".join(f"({', '.join(row)},)" for row in rows)
    return "\n".join([
        "def build(jac):",
        f"    {unpack}, = jac",
        f"    trace = {_dot([(a, a) for row in rows for a in row])}",
        "    if not isfinite(trace):",
        "        raise IntegrationError('non-finite constraint Jacobian Gram matrix')",
        "    if trace == 0.0:",
        "        raise RankError('constraint Jacobian Gram matrix is numerically rank zero')",
        "    cutoff = CUTOFF * sqrt(trace)",
        "    miss = []",
        *(f"    {line}" for line in factor),
        "    def correct(r):",
        f"        {', '.join(r)}, = r",
        *(f"        {line}" for line in solve),
        f"        return [{', '.join(correction)}]",
        "    return correct",
        "",
    ])


@functools.lru_cache(maxsize=None)
def _kernel(m: int, n: int, kept: tuple):
    """``build`` of ``_source(m, n, kept)``, compiled once per process; the
    cache holds a kernel per shape and pattern met, a few per system."""
    namespace = {"hypot": math.hypot, "isfinite": math.isfinite, "sqrt": math.sqrt,
                 "CUTOFF": _SINGULAR_CUTOFF, "IntegrationError": IntegrationError,
                 "RankError": RankError}
    exec(compile(_source(m, n, kept), f"<gram-schmidt {m}x{n} {kept}>", "exec"), namespace)
    return namespace["build"]


# The rows the last build of each Jacobian shape kept: where the next build
# of that shape starts its search. It orders the search, never its result.
_kept_rows = {}


def _pseudo_inverse(jac):
    """The correction r -> J^+ r for the constraint Jacobian J given as its m rows.

    Modified Gram-Schmidt on the rows of J gives J = T Q, with Q's k rows
    orthonormal and T an (m, k) lower trapezoidal matrix; a row whose
    remainder is below ``_SINGULAR_CUTOFF`` times the Frobenius norm of J
    adds no row to Q. Then J^+ = Q^T T^+. With no row dropped, T is square
    lower triangular and T^+ r = T^{-1} r is a forward substitution.
    Otherwise a second Gram-Schmidt, on T's columns, gives T = P R with P's
    k columns orthonormal and R upper triangular, and T^+ r = R^{-1} P^T r.
    The map returns the n-component correction as a list of Python floats.

    The sum of the squared entries of J is the trace of the Gram matrix
    G = J J^T, finite exactly when G is; a non-finite trace raises
    IntegrationError, and a zero one, J = 0, RankError.

    All of this runs as straight-line code, a kernel generated from J's
    shape (m, n) and the rows the cutoff keeps (``_source``) and compiled
    with ``exec`` once per process (``_kernel``); README gives the compile
    cost per system. Its sums, in ``sum``'s start and order, its norms and
    its divisions are those of the loop form it replaced, so each
    correction is bit for bit the loop's (tests/test_integrators.py keeps
    that loop as the reference). A build starts from the rows the last build
    of its shape kept, all rows at first. A kernel whose cutoff tests
    disagree with its pattern returns the rows that disagreed, and the
    search flips them and runs the kernel of the new pattern. The first of
    those rows is then settled, so at most m + 1 kernels run; the later
    ones are the kernel's estimate past it, and the shipped systems' first
    builds run one kernel (perturbed Kepler) or two.
    """
    shape = len(jac), len(jac[0])
    kept = _kept_rows.get(shape) or tuple(range(shape[0]))
    correct = _kernel(*shape, kept)(jac)
    while type(correct) is list:  # the rows whose tests disagreed with kept
        kept = tuple(sorted(set(kept).symmetric_difference(correct)))
        correct = _kernel(*shape, kept)(jac)
    _kept_rows[shape] = kept
    return correct


def projection_step(cfg: ProjectionConfig, field, x, h):
    """Euler step followed by pull-back onto the constraint level set.

    Computes xt = euler_step(field, x, h), then solves f(y) = target by
    simplified Newton on the state itself: with the correction
    r -> Df(xt)^+ r, which is Df(xt)^T G^+ r for G = Df Df^T, each
    iteration is y <- y - Df(xt)^+ (f(y) - target), starting from y = xt.
    An iteration rebuilds the correction from Df at its y when it fails to
    shrink the residual norm by the factor ``_CONTRACTION``, or when its
    ratio theta of successive residual norms, kept for the iterations
    cfg.max_iter leaves, would not bring the residual norm within cfg.tol:
    Deuflhard's predicted contraction. cfg.max_iter bounds the iterations in
    all. Returns once the residual norm is within cfg.tol; raises
    ProjectionError with the final residual otherwise.

    Everything is Python floats: the Euler step, ``cfg.constraint``'s
    ``eval`` and ``jacobian`` on the state tuple, each residual and its
    norm, the correction (``_pseudo_inverse``) and the iterate y.
    """
    f, target = cfg.constraint, cfg.target
    xt = euler_step(field, x, h)
    values = f.eval(xt)
    rnorm = math.dist(values, target)
    if rnorm <= cfg.tol:
        return xt
    correct = _pseudo_inverse(f.jacobian(xt))
    y = xt
    for left in reversed(range(cfg.max_iter)):
        y = tuple(map(sub, y, correct(list(map(sub, values, target)))))
        values = f.eval(y)
        previous, rnorm = rnorm, math.dist(values, target)
        if rnorm <= cfg.tol:
            return y
        theta = rnorm / previous
        if left and (theta > _CONTRACTION or rnorm * theta**left > cfg.tol):
            correct = _pseudo_inverse(f.jacobian(y))
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

    x0 is a tuple of Python floats, and ``advance`` maps such a tuple to the
    next one; any other x0 raises TypeError, as an array's numpy scalars
    would overflow to inf with a warning instead of raising. ``observe(k, x)``
    sees the start state (k = 0) and the state after every step k. A step
    and its observation fail together as step k: an ``ArithmeticError``
    (float overflow, division by zero) becomes IntegrationError with
    ``step = k`` and the original error as its cause; any other exception
    gets ``step = k`` unless it already carries a step, and propagates
    unchanged.
    """
    if type(x0) is not tuple or not all(type(c) is float for c in x0):
        raise TypeError(f"start state must be a tuple of Python floats, got {x0!r}")
    x = x0
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
    """``integrate`` recording every ``stride``-th state; returns (times,
    states), lists of the float times and of the state tuples.

    Step 0 and the final step are always recorded.
    """
    times, states = [], []

    def record(k, x):
        if k % stride == 0 or k == n_steps:
            times.append(k * h)
            states.append(x)

    integrate(advance, x0, h, n_steps, record)
    return times, states
