"""Experiment runner CLI.

Subcommands:

  run     Integrate one system/method/step-size cell and write a CSV drift
          trace plus a summary (config file with flag overrides).
  figure  Reproduce the benchmark figure data sets (F1..F9) at a reduced
          horizon scale, one CSV per method curve.
  check   Run the validator suite for a system; exits nonzero on failure.

CSV schema per system: ``t, <state components...>, V, <drift metrics...>``
with one header row, '.' decimal separator and 17 significant digits so the
doubles round-trip exactly. Exit codes: 0 success, 2 configuration error,
3 domain violation, scheme failure or arithmetic overflow mid-run, or a
failed write of the CSV or of stdout, 4 validator failure.
"""

import argparse
import configparser
import contextlib
import math
import os
import sys
import time
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, NamedTuple, Optional

from .errors import ConfigError, DomainError, IntegrationError
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
from .numerics import dot
from .systems import SYSTEM_NAMES, SystemModel, make_system, module

METHOD_NAMES = (
    "feedback_euler", "feedback_rk4", "euler", "rk4",
    "projection_euler", "splitting", "stormer_verlet_a", "stormer_verlet_b",
)


@dataclass
class ExperimentConfig:
    """One integration cell: system x method x step size, plus I/O settings."""

    system: str = ""
    method: str = ""
    h: Optional[float] = None
    t_end: Optional[float] = None
    gains: dict = dataclass_field(default_factory=dict)
    initial_condition: object = "paper_default"
    output_path: str = "run.csv"
    sample_stride: int = 1
    mu: Optional[float] = None
    delta: Optional[float] = None
    eccentricity: Optional[float] = None
    inertia: Optional[tuple] = None
    projection_tol: Optional[float] = None
    projection_max_iter: int = 25

    def validated(self) -> "ExperimentConfig":
        """Check what needs no system, and fill in h. Gain and constant names are
        checked by ``make_system``, their values by the params, the method by
        ``make_advance`` and the projection settings by ``ProjectionConfig``."""
        if self.system not in SYSTEM_NAMES:
            raise ConfigError(f"unknown system {self.system!r}; choose from {SYSTEM_NAMES}")
        if self.method not in METHOD_NAMES:
            raise ConfigError(f"unknown method {self.method!r}; choose from {METHOD_NAMES}")
        if self.h is None:
            self.h = module(self.system).BENCHMARK_STEP
        if not math.isfinite(self.h):
            raise ConfigError(f"step size h must be finite, got {self.h!r}")
        if self.h <= 0.0:
            raise ConfigError("step size h must be positive")
        if self.t_end is None:
            raise ConfigError("t_end is required (config [experiment] or --t-end)")
        if not math.isfinite(self.t_end):
            raise ConfigError(f"t_end must be finite, got {self.t_end!r}")
        if self.t_end <= self.h:
            raise ConfigError("t_end must exceed the step size h")
        if not math.isfinite(self.t_end / self.h):
            raise ConfigError(f"step count t_end / h = {self.t_end!r} / {self.h!r} is not finite")
        if self.sample_stride < 1:
            raise ConfigError("sample stride must be a positive integer")
        return self

    def constants(self) -> dict:
        """The [constants] that are set, by name."""
        return {row.key: getattr(self, row.field) for row in CONFIG_KEYS
                if row.section == "constants" and getattr(self, row.field) is not None}


class ConfigKey(NamedTuple):
    """A config key, the ExperimentConfig field it sets, and how its text
    parses. Key None makes the section open: ``parse`` takes the section's
    mapping, and the system checks the names (gains, state components) when
    it is built. An [experiment] key is also a `run` flag, ``--key`` with
    '_' as '-', with ``help`` and ``choices``.
    """

    section: str
    key: Optional[str]
    field: str
    parse: Callable = float
    help: Optional[str] = None
    choices: Optional[tuple] = None


def _float_values(section) -> dict:
    return {k: float(v) for k, v in section.items()}


def _parse_initial(section):
    """``condition = paper_default`` alone, or the start state's components."""
    given = dict(section)
    condition = given.pop("condition", None)
    if condition is None:
        return _float_values(given)
    if condition != "paper_default":
        raise ConfigError(f"unknown initial condition {condition!r}; give "
                          "condition = paper_default or the start state's components")
    if given:
        raise ConfigError(f"initial components {list(given)} "
                          "given with condition = paper_default")
    return "paper_default"


# The config schema: parsing, its unknown-section and unknown-key errors
# and the `run` flags all read this table.
CONFIG_KEYS = (
    ConfigKey("experiment", "system", "system", str, "system override", SYSTEM_NAMES),
    ConfigKey("experiment", "method", "method", str, "method override", METHOD_NAMES),
    ConfigKey("experiment", "h", "h", help="step size override"),
    ConfigKey("experiment", "t_end", "t_end", help="horizon override"),
    ConfigKey("experiment", "out", "output_path", str, "output CSV path override"),
    ConfigKey("experiment", "stride", "sample_stride", int, "output subsampling stride"),
    ConfigKey("gains", None, "gains", _float_values),
    ConfigKey("constants", "mu", "mu"),
    ConfigKey("constants", "delta", "delta"),
    ConfigKey("constants", "eccentricity", "eccentricity"),
    ConfigKey("constants", "inertia", "inertia",
              lambda text: tuple(float(part) for part in text.split(","))),
    ConfigKey("initial", None, "initial_condition", _parse_initial),
    ConfigKey("projection", "tol", "projection_tol"),
    ConfigKey("projection", "max_iter", "projection_max_iter", int),
)
RUN_FLAGS = tuple(row for row in CONFIG_KEYS if row.section == "experiment")


def parse_config(path: str) -> ExperimentConfig:
    """Read a flat key = value config file with section headers."""
    try:
        with open(path) as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return parse_config_text(text)


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse config text; an unknown section or key or an unparsable value is a ConfigError.

    Values are literal: a '%' is not an interpolation.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
        cfg = ExperimentConfig()
        for section in parser.sections():
            rows = {row.key: row for row in CONFIG_KEYS if row.section == section}
            if not rows:
                raise ConfigError(f"unknown config section [{section}]")
            if None in rows:  # an open section
                setattr(cfg, rows[None].field, rows[None].parse(parser[section]))
                continue
            unknown = [k for k in parser[section] if k not in rows]
            if unknown:
                raise ConfigError(f"unknown keys {unknown} in config section [{section}]")
            for key, value in parser[section].items():
                setattr(cfg, rows[key].field, rows[key].parse(value))
        return cfg
    except ConfigError:
        raise
    except (configparser.Error, ValueError) as exc:
        raise ConfigError(f"bad config: {exc}") from exc


def build_system(cfg: ExperimentConfig) -> SystemModel:
    """Instantiate the configured system with gains, constants and start state."""
    initial = None
    if cfg.initial_condition != "paper_default":
        names = module(cfg.system).STATE_NAMES
        missing = [n for n in names if n not in cfg.initial_condition]
        if missing:
            raise ConfigError(f"initial condition missing components {missing}")
        extra = [n for n in cfg.initial_condition if n not in names]
        if extra:
            raise ConfigError(f"unknown initial-condition components {extra}")
        initial = tuple(cfg.initial_condition[n] for n in names)
    try:
        return make_system(cfg.system, initial_state=initial, gains=cfg.gains,
                           **cfg.constants())
    except (ValueError, DomainError) as exc:
        raise ConfigError(str(exc)) from exc
    except ArithmeticError as exc:  # the start state's integrals overflow
        raise ConfigError(f"{type(exc).__name__} at the initial state: {exc}") from exc


class DriftObserver:
    """A run's drift rows and their running maxima, one state at a time.

    ``observe(k, x)`` gives x_k's drift row, V first, keeps it as ``row``
    and raises ``maxima`` by it, in column order (-1.0 until a column's
    first value; a NaN raises nothing). The row comes from
    ``system.drift_metrics``, except where ``make_advance`` has set
    ``fused`` for a feedback method: then it comes from
    ``system.field_and_drift``, which gives the same row bit for bit, and
    the field is kept as ``value``, the first stage of the step from
    ``state``. If that evaluation overflows, divides by zero or leaves the
    domain, nothing is kept and ``drift_metrics`` and ``modified_field``
    raise the failure where they would.
    """

    __slots__ = ("names", "drift_metrics", "field_and_drift", "fused",
                 "state", "value", "maxima", "row")

    def __init__(self, system: SystemModel):
        self.names = system.drift_names
        self.drift_metrics = system.drift_metrics
        self.field_and_drift = system.field_and_drift
        self.fused = False
        self.state = self.value = None
        self.maxima = [-1.0] * len(self.names)
        self.row = ()

    def observe(self, k, x):
        row = None
        if self.fused:
            try:
                self.value, row = self.field_and_drift(x)
                self.state = x
            except (ArithmeticError, DomainError):
                self.state = None
        if row is None:
            row = self.drift_metrics(x)
        self.row = row
        maxima = self.maxima
        i = 0
        for value in row:
            if maxima[i] < value:
                maxima[i] = value
            i += 1
        return row

    def max_drift(self) -> dict:
        """The maxima by column name, V last as in the summary; columns with no value left out."""
        names, maxima = self.names, self.maxima
        return {names[i]: maxima[i] for i in (*range(1, len(names)), 0) if maxima[i] != -1.0}


def make_advance(system: SystemModel, method: str, cfg: ExperimentConfig,
                 observer: Optional[DriftObserver] = None):
    """Bind a method name to an ``advance(x, h) -> x`` closure stepping a tuple of floats.

    The feedback methods step ``system.modified_field``; given a
    ``DriftObserver``, they set its ``fused`` and take its kept field as the
    first stage at the state it was kept for.
    """
    # ProjectionConfig checks tol and max_iter with every method, before any output
    tol = cfg.projection_tol if cfg.projection_tol is not None else system.projection_tol
    try:
        pcfg = ProjectionConfig(constraint=system.integral_map, target=system.params.f0,
                                tol=tol, max_iter=cfg.projection_max_iter)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if method in ("feedback_euler", "feedback_rk4"):
        scheme = euler_step if method == "feedback_euler" else rk4_step
        modified_field = system.modified_field
        if observer is None:
            return lambda x, h: scheme(modified_field, x, h)
        observer.fused = True

        def advance(x, h):
            return scheme(modified_field, x, h, observer.value if x is observer.state else None)

        return advance
    if method == "euler":
        return lambda x, h: euler_step(system.field, x, h)
    if method == "rk4":
        return lambda x, h: rk4_step(system.field, x, h)
    if method == "projection_euler":
        return lambda x, h: projection_step(pcfg, system.field, x, h)
    if method == "splitting":
        if system.splitting_step is None:
            raise ConfigError(f"the splitting method is not defined for system {system.name!r}")
        return system.splitting_step
    if method in ("stormer_verlet_a", "stormer_verlet_b"):
        if system.accel is None:
            raise ConfigError("Stormer-Verlet schemes need a position-only acceleration, "
                              f"which system {system.name!r} does not have")
        variant = "A" if method.endswith("a") else "B"

        def advance(x, h):
            q, v = stormer_verlet_step(system.accel, x[:3], x[3:], h, variant=variant)
            return (*q, *v)

        return advance
    raise ConfigError(f"unknown method {method!r}")


class RunSummary(NamedTuple):
    max_drift: dict
    final_v: float
    wall_time: float
    steps_taken: int
    output_path: str


def run_experiment(cfg: ExperimentConfig) -> RunSummary:
    """Integrate one configured cell, stream the CSV trace, return the summary.

    Drift maxima are tracked at full step resolution regardless of the output
    stride; only the rows that are written are formatted. The rows and
    maxima come from a ``DriftObserver``: a feedback method's state x_k
    gets its row from the evaluation of its field that starts step k + 1
    (at the final state, the same evaluation with no step after it), and
    the other methods' states from ``drift_metrics``.

    A mid-run failure (``integrate`` numbers the step and turns float
    overflow or division by zero into IntegrationError) flushes the partial
    CSV before the error propagates with a partial summary attached. An OSError of the CSV handle
    (a write, or the flush at close) propagates with the step being written:
    0 for the header and the start row, the number of steps for the close.
    """
    cfg = cfg.validated()
    system = build_system(cfg)
    n_steps = steps_for(cfg.t_end, cfg.h)
    observer = DriftObserver(system)
    advance = make_advance(system, cfg.method, cfg, observer)
    stride = cfg.sample_stride
    started = time.perf_counter()
    header = ["t", *system.state_names, *system.drift_names]
    # one %-operation per row; "%.17g" writes the same text as format(v, ".17g")
    row_format = ",".join(["%.17g"] * len(header)) + "\n"

    try:
        handle = open(cfg.output_path, "w", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write {cfg.output_path!r}: {exc}") from exc

    drift = observer.observe

    def observe(k, x):
        row = drift(k, x)
        if k % stride == 0 or k == n_steps:
            handle.write(row_format % (k * cfg.h, *x, *row))

    def summary(steps_taken):
        return RunSummary(
            max_drift=observer.max_drift(),
            final_v=observer.row[0],
            wall_time=time.perf_counter() - started,
            steps_taken=steps_taken,
            output_path=cfg.output_path,
        )

    step = 0  # numbers an OSError of the handle that integrate has not numbered
    try:
        handle.write(",".join(header) + "\n")
        try:
            integrate(advance, system.initial_state, cfg.h, n_steps, observe)
        except (DomainError, IntegrationError) as exc:
            exc.partial_summary = summary(exc.step - 1)
            step = exc.step
            handle.close()  # flushes the partial CSV
            raise
        step = n_steps
        handle.close()
    except OSError as exc:
        exc.step = getattr(exc, "step", step)
        raise
    finally:  # closes the CSV on every exit; after a failed write, its flush fails again
        with contextlib.suppress(OSError):
            handle.close()
    return summary(n_steps)


class FigureSpec(NamedTuple):
    system: str
    methods: tuple
    h: float
    t_end: float
    h_overrides: dict


_RIGID_FIG = FigureSpec(
    "rigid_body",
    ("feedback_euler", "projection_euler", "splitting", "euler"),
    1e-4, 1000.0, {})
# 1000 periods 2 pi sqrt(a^3 / mu) of the benchmark Kepler orbit, a = 5, mu = 1,
# written out so that a `figure` of another system loads no Kepler module
_KEPLER_FIG = FigureSpec(
    "kepler",
    ("feedback_euler", "projection_euler", "stormer_verlet_a", "stormer_verlet_b"),
    0.005, 1000.0 * 2.0 * math.pi * math.sqrt(125.0), {})
_PERT_FIG = FigureSpec(
    "perturbed_kepler",
    ("feedback_euler", "projection_euler", "stormer_verlet_a", "rk4"),
    0.03, 200.0, {"rk4": 1e-4})

FIGURES = {
    "F1": _RIGID_FIG, "F2": _RIGID_FIG, "F3": _RIGID_FIG, "F4": _RIGID_FIG,
    "F5": _KEPLER_FIG, "F6": _KEPLER_FIG, "F7": _KEPLER_FIG,
    "F8": _PERT_FIG, "F9": _PERT_FIG,
}


def replicate_figure(figure_id: str, scale: float, out_dir: str) -> dict:
    """Write one CSV per method curve of a benchmark figure.

    The horizon is the figure's full horizon multiplied by ``scale`` in
    (0, 1]; step sizes and gains are the benchmark values. Returns a mapping
    from method name to CSV path.
    """
    if figure_id not in FIGURES:
        raise ConfigError(f"unknown figure id {figure_id!r}; choose F1..F9")
    if not (0.0 < scale <= 1.0):
        raise ConfigError("scale must lie in (0, 1]")
    spec = FIGURES[figure_id]
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir!r}: {exc}") from exc
    paths = {}
    for method in spec.methods:
        h = spec.h_overrides.get(method, spec.h)
        t_end = spec.t_end * scale
        n = steps_for(t_end, h)
        cfg = ExperimentConfig(
            system=spec.system,
            method=method,
            h=h,
            t_end=t_end,
            output_path=os.path.join(out_dir, f"{figure_id}_{method}.csv"),
            sample_stride=max(1, n // 5000),
        )
        run_experiment(cfg)
        paths[method] = cfg.output_path
    return paths


# The validator reports `check` calls. They come from ``diagnostics``, which
# a `run` never needs, so the module is imported on first use.
_REPORTS = ("orthogonality_report", "gradient_agreement_report", "check_rank_condition")


def _import_reports() -> None:
    """Import ``diagnostics`` and put the reports into this module's
    globals, keeping any already there: a wrapper set on ``cli.<report>``
    (a test's monkeypatch, perfbench's tracer) stays what ``check_system``
    calls."""
    from . import diagnostics

    for name in _REPORTS:
        globals().setdefault(name, getattr(diagnostics, name))


def __getattr__(name: str):
    # PEP 562: ``cli.<report>`` before any ``check`` imports diagnostics
    if name in _REPORTS:
        _import_reports()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _print_check(name: str, passed: bool, detail: str) -> bool:
    print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    return passed


def check_system(name: str) -> int:
    """Validator suite for one system; returns the process exit code."""
    if name not in SYSTEM_NAMES:
        raise ConfigError(f"unknown system {name!r}; choose from {SYSTEM_NAMES}")
    _import_reports()
    system = make_system(name)
    ok = True

    rep = orthogonality_report(system, n_samples=10_000, seed=1)
    ok &= _print_check(
        f"{name}.orthogonality",
        rep.passed,
        f"max scaled <grad V, X> residual {rep.max_scaled_residual:.3e} "
        f"over {rep.n_samples} states (tol {rep.tolerance:.0e})")

    rep = gradient_agreement_report(system, n_samples=1000, seed=2)
    ok &= _print_check(
        f"{name}.gradient_agreement",
        rep.passed,
        f"max scaled analytic-vs-generic difference {rep.max_scaled_residual:.3e} "
        f"over {rep.n_samples} states (tol {rep.tolerance:.0e})")

    if name == "rigid_body":
        # starting on the level set, V must stay at the scheme-attractor
        # scale (measured ~4e-9 for Euler at h = 1e-4), far below the basin
        # bound
        _, states = rollout(
            make_advance(system, "feedback_euler", ExperimentConfig()),
            system.initial_state, 1e-4, steps_for(2.0, 1e-4), stride=200)
        worst = max(system.lyapunov(s) for s in states)
        ok &= _print_check(
            "rigid_body.level_set_invariance",
            worst <= 1e-7,
            f"max V {worst:.3e} over t in [0, 2] starting on the level set (tol 1e-7)")

    if name == "kepler":
        from . import kepler
        from .diagnostics import worst_residual

        p = system.params

        def identity_residual(s):
            l0, l1, l2, a0, a1, a2, E = kepler.invariant_components(p, s)
            L, A = (l0, l1, l2), (a0, a1, a2)
            LL, AA = dot(L, L), dot(A, A)
            relation = abs(AA - p.mu**2 - 2.0 * E * LL) / (1.0 + abs(AA) + 2.0 * abs(E) * LL)
            ortho = abs(dot(L, A)) / (1.0 + math.sqrt(LL) * math.sqrt(AA))
            return relation if relation > ortho or relation != relation else ortho

        worst = worst_residual(system, 2000, 3, identity_residual)
        ok &= _print_check(
            "kepler.vector_identities",
            worst <= 1e-12,
            f"max scaled residual of |A|^2 = mu^2 + 2E|L|^2 and L . A = 0: {worst:.3e}")

        orbit_samples = [kepler.state_at_eccentric_anomaly(p, 2.0 * math.pi * k / 6)
                         for k in range(6)]
        rank = check_rank_condition(system.integral_map, orbit_samples)
        usable = min(spectrum[4] for spectrum in rank.spectra)
        ok &= _print_check(
            "kepler.integral_map_rank",
            usable > 1e-8,
            f"(L, A) pins the orbit: 5th singular value >= {usable:.3e}; the 6th "
            f"vanishes along the flow direction (min {rank.min_singular_value:.3e})")

    if name == "perturbed_kepler":
        from . import perturbed_kepler

        # states in closed form across the band of the start radius, from
        # one turning point to the other
        states = perturbed_kepler.level_set_states(system.params, system.initial_state)
        rank = check_rank_condition(system.integral_map, states)
        ok &= _print_check(
            "perturbed_kepler.integral_map_rank",
            rank.passed,
            f"min singular value of the (E, L) Jacobian on the level set "
            f"{rank.min_singular_value:.3e} (tol {rank.threshold:.0e})")

        report = perturbed_kepler.check_hypothesis(system.params)
        ok &= _print_check(
            "perturbed_kepler.circular_orbit_hypothesis",
            report.satisfied,
            f"{len(report.roots)} candidate radii in {report.bracket}, "
            f"energy residuals {tuple(f'{r:.3g}' for r in report.residuals)} "
            f"(all must exceed {report.residual_tol:.0e})")

    return 0 if ok else 4


def _parse_gains(text: str) -> dict:
    gains = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"bad gain assignment {part!r}; expected k0=...,k1=...")
        key, _, value = part.partition("=")
        key = key.strip()
        if key in gains:  # as a config file's [gains] refuses a repeated key
            raise ConfigError(f"gain {key!r} given more than once in {text!r}")
        try:
            gains[key] = float(value)
        except ValueError:
            raise ConfigError(f"bad gain value in {part!r}") from None
    return gains


def _build_run_parser(sub):
    p = sub.add_parser("run", help="run one experiment cell and write a CSV trace")
    p.add_argument("--config", help="config file (flat key = value with sections)")
    for row in RUN_FLAGS:
        p.add_argument("--" + row.key.replace("_", "-"), dest=row.key, type=row.parse,
                       choices=row.choices, help=row.help)
    p.add_argument("--gains", help="gain overrides, e.g. k0=50,k1=100,k2=50")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lyapint",
        description="Invariant-preserving integration experiments "
                    "(gradient-feedback, projection, splitting, Stormer-Verlet)")
    sub = parser.add_subparsers(dest="command", required=True)
    _build_run_parser(sub)
    fig = sub.add_parser("figure", help="replicate a benchmark figure's data at reduced scale")
    fig.add_argument("--id", required=True, help="figure id, F1..F9")
    fig.add_argument("--scale", type=float, required=True, help="horizon scale in (0, 1]")
    fig.add_argument("--out-dir", dest="out_dir", required=True, help="output directory")
    chk = sub.add_parser("check", help="run validator suite for a system")
    chk.add_argument("--system", required=True, choices=SYSTEM_NAMES)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = parse_config(args.config) if args.config else ExperimentConfig()
            for row in RUN_FLAGS:  # a given flag beats the config file
                if getattr(args, row.key) is not None:
                    setattr(cfg, row.field, getattr(args, row.key))
            if args.gains:
                cfg.gains = {**cfg.gains, **_parse_gains(args.gains)}
            summary = run_experiment(cfg)
            print(f"steps_taken = {summary.steps_taken}")
            print(f"final_V = {summary.final_v:.17g}")
            for key, value in summary.max_drift.items():
                print(f"max_{key} = {value:.17g}")
            print(f"wall_time_s = {summary.wall_time:.3f}")
            print(f"csv = {summary.output_path}")
            code = 0
        elif args.command == "figure":
            paths = replicate_figure(args.id, args.scale, args.out_dir)
            for method, path in paths.items():
                print(f"{method}: {path}")
            code = 0
        else:
            code = check_system(args.system)
        sys.stdout.flush()  # a stdout that cannot be written fails here, not at exit
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, IntegrationError, OSError) as exc:
        step = getattr(exc, "step", None)
        if step is None and isinstance(exc, OSError):
            # the CSV's OSErrors carry the step being written, and an unreadable
            # config is a ConfigError: this one is stdout's
            print(f"cannot write stdout: {exc}", file=sys.stderr)
            sys.stdout = None  # what it still buffers would fail again at exit
            return 3
        where = f" at step {step}" if step is not None else ""
        print(f"run aborted{where}: {exc}", file=sys.stderr)
        partial = getattr(exc, "partial_summary", None)
        if partial is not None:
            print(f"partial CSV flushed to {partial.output_path} "
                  f"({partial.steps_taken} completed steps)", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
