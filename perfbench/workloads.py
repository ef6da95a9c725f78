"""Workload definitions, seeded inputs and output checks for the benchmark.

Each workload is a sequence of `lyapint` CLI processes. The three `run`
workloads integrate one configured cell; `check_all` runs the validator
suite of every system. One operation is one CLI process, and every
operation's outputs are checked here (exit code, CSV schema, row count,
17-digit values, drift maxima or seed-independent properties, byte
identity across a set).

Pure Python (stdlib only): the benchmark's checks do not reuse the
program's own numerics.
"""

import math
import random
import re
from dataclasses import dataclass

# The seed whose inputs are the paper's default initial conditions
# (`condition = paper_default`); its drift maxima are checked against the
# reference values below. Every other seed perturbs the initial state.
DEFAULT_SEED = 0

# Absolute size of the seeded perturbation of each initial-state component.
# Small enough that every seed runs the same kind of trajectory at the same
# cost (no seed makes projection fail or lengthens its Newton loop much).
PERTURBATION = 1e-3

# README CSV schema, one header per system.
CSV_HEADERS = {
    "rigid_body": ("t,r00,r01,r02,r10,r11,r12,r20,r21,r22,w0,w1,w2,"
                   "V,dE,dPi,so3dev"),
    "kepler": "t,x0,x1,x2,v0,v1,v2,V,dL,dA,dE",
    "perturbed_kepler": "t,x0,x1,x2,v0,v1,v2,V,dE,dL",
}

STATE_NAMES = {
    "kepler": ("x0", "x1", "x2", "v0", "v1", "v2"),
    "perturbed_kepler": ("x0", "x1", "x2", "v0", "v1", "v2"),
}

# Paper default initial states (README "Config files").
PAPER_DEFAULT = {
    "rigid_body": (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0),
    "kepler": (1.0, 0.0, 0.0, 0.0, math.sqrt(1.8), 0.0),
    "perturbed_kepler": (0.4, 0.0, 0.0, 0.0, 2.0, 0.0),
}

# Default gains and constants of the shipped systems, needed for the gain
# bound (the sublevel value V must stay below) on perturbed initial states.
RIGID_INERTIA = (3.0, 2.0, 1.0)
RIGID_GAINS = (50.0, 100.0, 50.0)
KEPLER_GAINS = (4.0, 2.0)
KEPLER_MU = 1.0

# Benchmark step size per system (one-step set-up runs use it too).
BENCHMARK_STEP = {"rigid_body": 1e-4, "kepler": 0.005, "perturbed_kepler": 0.03}

# Projection tolerance written into the pk_proj_newton config; every
# emitted row's residual |f(x) - f(x0)| must be within it.
PROJECTION_TOL = 1e-8

# Drift maxima printed by the CLI for DEFAULT_SEED, recorded at the commit
# that introduced the benchmark. Tolerance: relative REFERENCE_RTOL. It is
# loose enough for kernels that are not bit-identical to those of that
# commit: deriving every feedback field from the generic Df^T K (f - f0)
# gradient and reordering the perturbed-Kepler energy sum moved these
# maxima by at most 1e-7 relative. It is tight enough to catch a wrong
# field: a 0.1% error in the Kepler or perturbed-Kepler force moved them by
# 1.5e-3 relative or more.
REFERENCE_RTOL = 1e-4
REFERENCE_DRIFTS = {
    "kepler_fb_dense": {
        "max_dL": 0.00020091825830337307,
        "max_dA": 0.0004306929434448249,
        "max_dE": 0.00021915483718815132,
        "max_V": 2.652450105942455e-07,
    },
    "pk_proj_newton": {
        "max_dE": 9.97506122146774e-09,
        "max_dL": 2.366137841214311e-09,
        "max_V": 1.0052297956629008e-16,
    },
}


@dataclass(frozen=True)
class RunCell:
    """One `lyapint run` configuration; its workload name keys the references."""

    name: str
    system: str
    method: str
    h: float
    t_end: float
    stride: int

    @property
    def n_steps(self) -> int:
        return int(math.floor(self.t_end / self.h + 1e-9))


def data_rows(n_steps: int, stride: int) -> int:
    """CSV data rows for n_steps: step 0, every stride-th step and the last."""
    return 1 + n_steps // stride + (1 if n_steps % stride else 0)


@dataclass(frozen=True)
class CheckSuite:
    """`lyapint check` on each system in turn; no seeded input."""

    name: str
    systems: tuple


WORKLOADS = {
    w.name: w for w in (
        RunCell("kepler_fb_dense", "kepler", "feedback_euler", 0.005, 50.0, 1),
        RunCell("pk_proj_newton", "perturbed_kepler", "projection_euler", 0.03, 240.0, 10),
        CheckSuite("check_all", ("rigid_body", "kepler", "perturbed_kepler")),
    )
}

# Validator lines `lyapint check` prints per system.
CHECK_LINES = {"rigid_body": 3, "kepler": 4, "perturbed_kepler": 4}


# ---------------------------------------------------------------- inputs

def initial_state(system: str, seed: int):
    """Initial state for a seed: the paper default, or each component of it
    offset uniformly by at most PERTURBATION."""
    base = PAPER_DEFAULT[system]
    if seed == DEFAULT_SEED:
        return base
    rng = random.Random(f"{system}:{seed}")
    return tuple(c + rng.uniform(-PERTURBATION, PERTURBATION) for c in base)


def config_text(cell: RunCell, seed: int, out_path: str) -> str:
    """The config file the CLI receives for a run workload and seed."""
    lines = [
        "[experiment]",
        f"system = {cell.system}",
        f"method = {cell.method}",
        f"h = {cell.h!r}",
        f"t_end = {cell.t_end!r}",
        f"stride = {cell.stride}",
        f"out = {out_path}",
        "",
        "[initial]",
    ]
    if seed == DEFAULT_SEED:
        lines.append("condition = paper_default")
    else:
        state = initial_state(cell.system, seed)
        lines += [f"{n} = {v!r}" for n, v in zip(STATE_NAMES[cell.system], state)]
    if cell.method == "projection_euler":
        lines += ["", "[projection]", f"tol = {PROJECTION_TOL!r}"]
    return "\n".join(lines) + "\n"


def one_step_t_end(h: float) -> float:
    """A horizon that gives exactly one step of size h (the CLI floors t_end / h)."""
    return 1.5 * h


# ---------------------------------------------------------------- checks

def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def gain_bound(system: str, state) -> float:
    """Sublevel bound on V for the default gains, from the initial state.

    Rigid body: min(k0/4, k1 |E0| / 2, k2 |pi0|^2 / 2). Kepler:
    min(k1 |L0|^2 / 2, k2 (mu - |A0|)^2 / 2). Perturbed Kepler has none.
    """
    if system == "rigid_body":
        k0, k1, k2 = RIGID_GAINS
        rows = (state[0:3], state[3:6], state[6:9])
        momentum = tuple(i * w for i, w in zip(RIGID_INERTIA, state[9:]))
        energy = 0.5 * _dot(state[9:], momentum)
        pi0 = tuple(_dot(r, momentum) for r in rows)
        return min(0.25 * k0, 0.5 * k1 * abs(energy), 0.5 * k2 * _dot(pi0, pi0))
    if system == "kepler":
        k1, k2 = KEPLER_GAINS
        x, v = state[:3], state[3:]
        r = math.sqrt(_dot(x, x))
        L = _cross(x, v)
        A = tuple(a - KEPLER_MU * c / r for a, c in zip(_cross(v, L), x))
        return min(0.5 * k1 * _dot(L, L), 0.5 * k2 * (KEPLER_MU - math.sqrt(_dot(A, A))) ** 2)
    return math.inf


def parse_summary(stdout: str) -> dict:
    """`key = value` lines of `lyapint run` stdout."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def check_csv(cell: RunCell, data: bytes, n_steps: int) -> list:
    """Problems found in a run's CSV; empty when it is well formed.

    Checks the README header, the data row count for n_steps, that every
    value is written at 17 significant digits, that V >= 0 on every row,
    and, for projection, that every row's integral residual is within the
    configured tolerance.
    """
    problems = []
    try:
        lines = data.decode("ascii").split("\n")
    except UnicodeDecodeError:
        return ["CSV is not ASCII text"]
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != CSV_HEADERS[cell.system]:
        return [f"CSV header {lines[0] if lines else ''!r} is not the README schema"]
    columns = lines[0].split(",")
    width = len(columns)
    v_col = columns.index("V")
    rows = lines[1:]
    expected = data_rows(n_steps, cell.stride)
    if len(rows) != expected:
        problems.append(f"{len(rows)} CSV data rows, expected {expected}")
    drift_cols = [columns.index(c) for c in ("dE", "dL")] \
        if cell.method == "projection_euler" else []
    for i, row in enumerate(rows, start=1):
        fields = row.split(",")
        if len(fields) != width:
            problems.append(f"row {i} has {len(fields)} fields, expected {width}")
            break
        try:
            values = [float(f) for f in fields]
        except ValueError:
            problems.append(f"row {i} holds a value that is not a number")
            break
        if any(format(v, ".17g") != f for v, f in zip(values, fields)):
            problems.append(f"row {i} has a value not written at 17 significant digits")
            break
        if not all(math.isfinite(v) for v in values):
            problems.append(f"row {i} holds a non-finite value")
            break
        if values[v_col] < 0.0:
            problems.append(f"row {i} has V < 0")
            break
        if drift_cols:
            residual = math.hypot(*(values[c] for c in drift_cols))
            if residual > PROJECTION_TOL * (1.0 + 1e-9):
                problems.append(f"row {i} projection residual {residual:.3e} "
                                f"above {PROJECTION_TOL:.0e}")
                break
    return problems


def check_run_stdout(cell: RunCell, summary: dict, seed: int, n_steps: int,
                     reference=None) -> list:
    """Problems in a run's printed summary.

    Checks the step count, V >= 0, max_V below the gain bound for feedback
    runs, and, when given, the drift maxima against reference values.
    """
    problems = []
    if summary.get("steps_taken") != str(n_steps):
        problems.append(f"steps_taken {summary.get('steps_taken')!r}, expected {n_steps}")
    try:
        maxima = {k: float(v) for k, v in summary.items() if k.startswith("max_")}
        final_v = float(summary["final_V"])
    except (KeyError, ValueError):
        return problems + ["summary lacks a numeric final_V or a max_* value"]
    if "max_V" not in maxima:
        return problems + ["summary lacks max_V"]
    if maxima["max_V"] < 0.0 or final_v < 0.0:
        problems.append("printed V is negative")
    if cell.method.startswith("feedback"):
        bound = gain_bound(cell.system, initial_state(cell.system, seed))
        if not maxima["max_V"] < bound:
            problems.append(f"max_V {maxima['max_V']:.3e} not below gain bound {bound:.3e}")
    if reference is not None and seed == DEFAULT_SEED:
        if set(maxima) != set(reference):
            problems.append(f"printed maxima {sorted(maxima)} differ from {sorted(reference)}")
        for key, ref in reference.items():
            got = maxima.get(key, math.nan)
            if not abs(got - ref) <= REFERENCE_RTOL * abs(ref):
                problems.append(f"{key} = {got!r} differs from reference {ref!r} "
                                f"by more than {REFERENCE_RTOL:g} relative")
    return problems


_STATES_RE = re.compile(r" over (\d+) states ")


def check_validator_stdout(system: str, stdout: str) -> tuple:
    """(problems, sampled states) for one `lyapint check` process's stdout."""
    lines = stdout.splitlines()
    problems = []
    if len(lines) != CHECK_LINES[system]:
        problems.append(f"{len(lines)} validator lines, expected {CHECK_LINES[system]}")
    problems += [f"validator failed: {line}" for line in lines
                 if not line.startswith(f"PASS {system}.")]
    states = sum(int(m.group(1)) for m in map(_STATES_RE.search, lines) if m)
    return problems, states
