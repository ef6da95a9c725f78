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
3 domain violation, scheme failure or arithmetic overflow mid-run,
4 validator failure.
"""

import argparse
import configparser
import io
import math
import os
import sys
import time
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Optional

from . import kepler, perturbed_kepler
from .diagnostics import (
    ORTHOGONALITY_BLOCK,
    check_rank_condition,
    gradient_agreement_report,
    orthogonality_report,
)
from .errors import ConfigError, DomainError, IntegrationError, ProjectionError, RankError
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
from .kepler import state_at_eccentric_anomaly
from .numerics import column_dot
from .systems import MODULES, SYSTEM_NAMES, SystemModel, make_system

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
        checked by ``make_system``, their values by the params, and the method by
        ``make_advance``."""
        if self.system not in SYSTEM_NAMES:
            raise ConfigError(f"unknown system {self.system!r}; choose from {SYSTEM_NAMES}")
        if self.method not in METHOD_NAMES:
            raise ConfigError(f"unknown method {self.method!r}; choose from {METHOD_NAMES}")
        if self.h is None:
            self.h = MODULES[self.system].BENCHMARK_STEP
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
        tol = self.projection_tol
        if tol is not None and not (math.isfinite(tol) and tol > 0.0):
            raise ConfigError(f"projection tol must be positive and finite, got {tol!r}")
        if self.projection_max_iter < 1:
            raise ConfigError("projection max_iter must be at least 1")
        return self

    def constants(self) -> dict:
        """The [constants] that are set, by name."""
        return {row.key: getattr(self, row.field) for row in CONFIG_KEYS
                if row.section == "constants" and getattr(self, row.field) is not None}


@dataclass(frozen=True)
class ConfigKey:
    """A config key, the ExperimentConfig field it sets, and how its text
    parses and formats. Key None makes the section open: ``parse`` takes the
    section's mapping and ``format`` gives one, and the system checks the
    names (gains, state components) when it is built. An [experiment] key is
    also a `run` flag, ``--key`` with '_' as '-', with ``help`` and ``choices``.
    """

    section: str
    key: Optional[str]
    field: str
    parse: Callable = float
    format: Callable = repr
    help: Optional[str] = None
    choices: Optional[tuple] = None


def _float_values(section) -> dict:
    return {k: float(v) for k, v in section.items()}


def _repr_values(values: dict) -> dict:
    return {k: repr(v) for k, v in values.items()}


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


# The config schema: parsing, its unknown-section and unknown-key errors,
# serialising and the `run` flags all read this table.
CONFIG_KEYS = (
    ConfigKey("experiment", "system", "system", str, str, "system override", SYSTEM_NAMES),
    ConfigKey("experiment", "method", "method", str, str, "method override", METHOD_NAMES),
    ConfigKey("experiment", "h", "h", help="step size override"),
    ConfigKey("experiment", "t_end", "t_end", help="horizon override"),
    ConfigKey("experiment", "out", "output_path", str, str, "output CSV path override"),
    ConfigKey("experiment", "stride", "sample_stride", int, str, "output subsampling stride"),
    ConfigKey("gains", None, "gains", _float_values, _repr_values),
    ConfigKey("constants", "mu", "mu"),
    ConfigKey("constants", "delta", "delta"),
    ConfigKey("constants", "eccentricity", "eccentricity"),
    ConfigKey("constants", "inertia", "inertia",
              lambda text: tuple(float(part) for part in text.split(",")),
              lambda values: ",".join(repr(v) for v in values)),
    ConfigKey("initial", None, "initial_condition", _parse_initial, _repr_values),
    ConfigKey("projection", "tol", "projection_tol"),
    ConfigKey("projection", "max_iter", "projection_max_iter", int, str),
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


def serialize_config(cfg: ExperimentConfig) -> str:
    """Config text that ``parse_config_text`` reads back as ``cfg``: each
    value that differs from the ExperimentConfig default."""
    parser = configparser.ConfigParser(interpolation=None)
    default = ExperimentConfig()
    for row in CONFIG_KEYS:
        value = getattr(cfg, row.field)
        if value == getattr(default, row.field):
            continue
        text = row.format(value)  # read_dict adds to a section already read
        parser.read_dict({row.section: text if row.key is None else {row.key: text}})
    buffer = io.StringIO()
    parser.write(buffer)
    return buffer.getvalue()


def build_system(cfg: ExperimentConfig) -> SystemModel:
    """Instantiate the configured system with gains, constants and start state."""
    initial = None
    if cfg.initial_condition != "paper_default":
        names = MODULES[cfg.system].STATE_NAMES
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


def make_advance(system: SystemModel, method: str, cfg: ExperimentConfig):
    """Bind a method name to an ``advance(x, h) -> x`` closure stepping a tuple of floats."""
    if method == "feedback_euler":
        return lambda x, h: euler_step(system.modified_field, x, h)
    if method == "feedback_rk4":
        return lambda x, h: rk4_step(system.modified_field, x, h)
    if method == "euler":
        return lambda x, h: euler_step(system.field, x, h)
    if method == "rk4":
        return lambda x, h: rk4_step(system.field, x, h)
    if method == "projection_euler":
        tol = cfg.projection_tol if cfg.projection_tol is not None else system.projection_tol
        pcfg = ProjectionConfig(
            constraint=system.integral_map,
            target=system.params.f0,
            tol=tol,
            max_iter=cfg.projection_max_iter,
        )
        return lambda x, h: projection_step(euler_step, pcfg, system.field, x, h)
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


@dataclass(frozen=True)
class RunSummary:
    max_drift: dict
    final_v: float
    wall_time: float
    steps_taken: int
    output_path: str


def run_experiment(cfg: ExperimentConfig) -> RunSummary:
    """Integrate one configured cell, stream the CSV trace, return the summary.

    Drift maxima are tracked at full step resolution regardless of the output
    stride; only the rows that are written are formatted. A mid-run failure
    (``integrate`` numbers the step and turns float overflow or division by
    zero into IntegrationError) flushes the partial CSV before the error
    propagates with a partial summary attached.
    """
    cfg = cfg.validated()
    system = build_system(cfg)
    advance = make_advance(system, cfg.method, cfg)
    n_steps = steps_for(cfg.t_end, cfg.h)
    stride = cfg.sample_stride

    maxima: dict = {}
    final_metrics: dict = {}
    started = time.perf_counter()
    drift_cols = [name for name in system.drift_names if name != "V"]
    header = ["t", *system.state_names, "V", *drift_cols]
    metric_cols = ("V", *drift_cols)
    # one %-operation per row; "%.17g" writes the same text as format(v, ".17g")
    row_format = ",".join(["%.17g"] * len(header)) + "\n"

    try:
        handle = open(cfg.output_path, "w", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write {cfg.output_path!r}: {exc}") from exc
    with handle:
        handle.write(",".join(header) + "\n")

        def observe(k, x):
            nonlocal final_metrics
            final_metrics = metrics = system.drift_metrics(x)
            for key, value in metrics.items():
                if maxima.get(key, -1.0) < value:
                    maxima[key] = value
            if k % stride == 0 or k == n_steps:
                handle.write(row_format % (k * cfg.h, *x, *[metrics[c] for c in metric_cols]))

        def summary(steps_taken):
            return RunSummary(
                max_drift=dict(maxima),
                final_v=final_metrics["V"],
                wall_time=time.perf_counter() - started,
                steps_taken=steps_taken,
                output_path=cfg.output_path,
            )

        try:
            integrate(advance, system.initial_state, cfg.h, n_steps, observe)
        except (DomainError, IntegrationError, ProjectionError, RankError) as exc:
            handle.flush()
            exc.partial_summary = summary(exc.step - 1)
            raise
    return summary(n_steps)


@dataclass(frozen=True)
class FigureSpec:
    system: str
    methods: tuple
    h: float
    t_end: float
    h_overrides: dict


_RIGID_FIG = FigureSpec(
    "rigid_body",
    ("feedback_euler", "projection_euler", "splitting", "euler"),
    1e-4, 1000.0, {})
_KEPLER_FIG = FigureSpec(
    "kepler",
    ("feedback_euler", "projection_euler", "stormer_verlet_a", "stormer_verlet_b"),
    0.005, 1000.0 * 70.2481, {})
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


def _print_check(name: str, passed: bool, detail: str) -> bool:
    print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    return passed


def check_system(name: str) -> int:
    """Validator suite for one system; returns the process exit code."""
    import numpy as np

    if name not in SYSTEM_NAMES:
        raise ConfigError(f"unknown system {name!r}; choose from {SYSTEM_NAMES}")
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
        f"max scaled analytic-vs-generic difference {rep.max_scaled_difference:.3e} "
        f"over {rep.n_samples} states (tol {rep.tolerance:.0e})")

    if name == "rigid_body":
        # starting on the level set, V must stay at the scheme-attractor
        # scale (measured ~4e-9 for Euler at h = 1e-4), far below the basin
        # bound
        _, states = rollout(
            make_advance(system, "feedback_euler", ExperimentConfig()),
            system.initial_state, 1e-4, steps_for(2.0, 1e-4), stride=200)
        worst = max(system.lyapunov(s) for s in states.tolist())
        ok &= _print_check(
            "rigid_body.level_set_invariance",
            worst <= 1e-7,
            f"max V {worst:.3e} over t in [0, 2] starting on the level set (tol 1e-7)")

    if name == "kepler":
        rng = np.random.default_rng(3)
        mu = system.params.mu
        worst = 0.0
        for block in system.sample_blocks(rng, 2000, ORTHOGONALITY_BLOCK):
            l0, l1, l2, a0, a1, a2, E = kepler.invariant_components(mu, tuple(block.T))
            L, A = (l0, l1, l2), (a0, a1, a2)
            LL, AA = column_dot(L, L), column_dot(A, A)
            relation = np.abs(AA - mu**2 - 2.0 * E * LL)
            ortho = np.abs(column_dot(L, A)) / (1.0 + np.sqrt(LL) * np.sqrt(AA))
            scale = 1.0 + np.abs(AA) + 2.0 * np.abs(E) * LL
            worst = max(worst, float((relation / scale).max()), float(ortho.max()))
        ok &= _print_check(
            "kepler.vector_identities",
            worst <= 1e-12,
            f"max scaled residual of |A|^2 = mu^2 + 2E|L|^2 and L . A = 0: {worst:.3e}")

        orbit_samples = [state_at_eccentric_anomaly(system.params, psi)
                         for psi in np.linspace(0.0, 2.0 * np.pi, 7)[:-1]]
        rank = check_rank_condition(system.integral_map, orbit_samples)
        usable = min(spectrum[4] for spectrum in rank.spectra)
        ok &= _print_check(
            "kepler.integral_map_rank",
            usable > 1e-8,
            f"(L, A) pins the orbit: 5th singular value >= {usable:.3e}; the 6th "
            f"vanishes along the flow direction (min {rank.min_singular_value:.3e})")

    if name == "perturbed_kepler":
        _, states = rollout(
            make_advance(system, "rk4", ExperimentConfig()),
            system.initial_state, 1e-3, steps_for(system.period, 1e-3),
            stride=max(1, steps_for(system.period, 1e-3) // 6))
        rank = check_rank_condition(system.integral_map, states.tolist())
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
        try:
            gains[key.strip()] = float(value)
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
            return 0
        if args.command == "figure":
            paths = replicate_figure(args.id, args.scale, args.out_dir)
            for method, path in paths.items():
                print(f"{method}: {path}")
            return 0
        if args.command == "check":
            return check_system(args.system)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, IntegrationError, ProjectionError, RankError) as exc:
        step = getattr(exc, "step", None)
        where = f" at step {step}" if step is not None else ""
        print(f"run aborted{where}: {exc}", file=sys.stderr)
        partial = getattr(exc, "partial_summary", None)
        if partial is not None:
            print(f"partial CSV flushed to {partial.output_path} "
                  f"({partial.steps_taken} completed steps)", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
