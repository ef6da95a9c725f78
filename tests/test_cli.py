import errno
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import run_with_metrics
from lyapint.cli import (
    ExperimentConfig,
    FIGURES,
    METHOD_NAMES,
    RUN_FLAGS,
    RunSummary,
    build_system,
    check_system,
    main,
    make_advance,
    parse_config_text,
    replicate_figure,
    run_experiment,
)
from lyapint.errors import ConfigError, IntegrationError, ProjectionError, RankError
from lyapint.integrators import rollout, steps_for
from lyapint.systems import SYSTEM_NAMES, make_system, module

SAMPLE_CONFIG = """\
[experiment]
system = kepler
method = feedback_euler
h = 0.005
t_end = 2.0
out = {out}
stride = 10

[gains]
k1 = 4
k2 = 2

[initial]
condition = paper_default
"""


def read_csv(path):
    with open(path) as handle:
        header = handle.readline().strip().split(",")
        rows = [line.strip().split(",") for line in handle if line.strip()]
    return header, rows


def test_config_text_with_every_section_parses_to_its_config():
    # every section and key; a value is literal ('%' is no interpolation),
    # an open section's names are passed on unchecked
    text = """\
[experiment]
system = rigid_body
method = splitting
h = 1e-3
t_end = 4
out = runs/50%.csv
stride = 7

[gains]
k0 = 50
k1 = 1e2
k2 = 0.5

[constants]
mu = 2.5
delta = 0.04
eccentricity = 0.3
inertia = 3, 2.5,1

[initial]
r00 = 1.0
r11 = -0.25

[projection]
tol = 1e-5
max_iter = 12
"""
    assert parse_config_text(text) == ExperimentConfig(
        system="rigid_body", method="splitting", h=1e-3, t_end=4.0,
        gains={"k0": 50.0, "k1": 100.0, "k2": 0.5},
        initial_condition={"r00": 1.0, "r11": -0.25},
        output_path="runs/50%.csv", sample_stride=7, mu=2.5, delta=0.04,
        eccentricity=0.3, inertia=(3.0, 2.5, 1.0), projection_tol=1e-5,
        projection_max_iter=12)


# Usual values of each `run` setting, and values outside its domain. A generated
# invocation takes usual values for all but at most two of the settings it gives.
_USUAL = {
    "system": SYSTEM_NAMES,
    "method": METHOD_NAMES,
    "h": ("0.001", "0.005", "0.03", "0.3", "1.0"),
    "t_end": ("1.0",),  # only with an invalid step size; see run_invocations
    "stride": ("1", "7", "100000"),
    "gains": ("1", "4", "50", "0.3"),
    "mu": ("1", "2.5"),
    "delta": ("0.0025", "0.04"),
    "eccentricity": ("0.6", "0.9", "0.99"),
    "inertia": ("3,2,1", "0.7,1.9,4.2"),
    "initial": ("0", "1", "-0.5", "1.2", "0.3"),
    "tol": ("1e-8", "0.005"),
    "max_iter": ("1", "25"),
    "extra": ("",),  # a config line besides the settings
}
_NUMBERS_OUT = ("0", "-1", "nan", "inf", "1e308", "1e-300", "abc")
_OUT_OF_DOMAIN = {
    **{key: _NUMBERS_OUT for key in _USUAL},
    "system": ("pendulum", ""),
    "method": ("leapfrog",),
    "t_end": ("0", "-1", "nan", "inf", "abc", ""),  # no long horizon
    "eccentricity": _NUMBERS_OUT + ("1", "1.5"),
    "inertia": ("1,2", "0,1,1", "nan,1,1", "abc"),
    "initial": ("nan", "1e200", "-1e200", "abc"),
    "max_iter": ("0", "-3", "2.5", "abc"),
    "extra": ("strid = 5", "[outputs]", "[gains", "= 1"),
}
_SECTIONS = {"constants": ("mu", "delta", "eccentricity", "inertia"),
             "projection": ("tol", "max_iter")}


def _module_of(name):
    """The module of the system ``name``, or None for a name that is not one."""
    return module(name) if name in SYSTEM_NAMES else None


@st.composite
def run_invocations(draw):
    """(config text or None, `run` flags) over valid and invalid settings.

    A valid step size gets a horizon of at most 2000 steps, so every run
    that starts ends within about a second.
    """
    given_keys = draw(st.sets(st.sampled_from(
        ("h", "stride", "gains", "initial", *_SECTIONS["constants"], *_SECTIONS["projection"]))))
    odd = draw(st.sets(st.sampled_from(
        sorted(given_keys | {"system", "method", "t_end", "extra"})), max_size=2))

    def value(key):
        return draw(st.sampled_from(_OUT_OF_DOMAIN[key] if key in odd else _USUAL[key]))

    system, method = value("system"), value("method")
    h = value("h") if "h" in given_keys else None
    try:
        step = getattr(_module_of(system), "BENCHMARK_STEP", None) if h is None else float(h)
    except ValueError:
        step = None
    if step is not None and 0.0 < step < math.inf and "t_end" not in odd:
        t_end = repr(step * draw(st.integers(2, 2000)))
    else:
        t_end = value("t_end")
    experiment = {"system": system, "method": method, "h": h, "t_end": t_end,
                  "stride": value("stride") if "stride" in given_keys else None}
    gains = {}
    if "gains" in given_keys:
        names = getattr(_module_of(system), "GAIN_NAMES", ()) + (("k9",) if "gains" in odd else ())
        gains = {name: value("gains") for name in draw(st.sets(st.sampled_from(names or ("k9",))))}

    flags, lines = [], ["[experiment]"]
    for key, text in experiment.items():
        if text is not None:
            if draw(st.booleans()):
                flags += [f"--{key.replace('_', '-')}", text]
            else:
                lines.append(f"{key} = {text}")
    if gains and draw(st.booleans()):
        flags += ["--gains", ",".join(f"{k}={v}" for k, v in gains.items())]
    elif gains:
        lines += ["[gains]", *(f"{k} = {v}" for k, v in gains.items())]
    for section, keys in _SECTIONS.items():
        entries = [f"{k} = {value(k)}" for k in keys if k in given_keys]
        if entries:
            lines += [f"[{section}]", *entries]
    lines.append("[initial]")
    system_module = _module_of(system)
    if system_module is None or "initial" not in given_keys:
        lines.append("condition = paper_default")
    else:
        # out of domain: one component missing, one too many, or one odd value
        components = {n: draw(st.sampled_from(_USUAL["initial"]))
                      for n in system_module.STATE_NAMES}
        if "initial" in odd:
            name = draw(st.sampled_from(system_module.STATE_NAMES))
            fault = draw(st.sampled_from(("missing", "extra", "value")))
            if fault == "missing":
                del components[name]
            else:
                components["zz" if fault == "extra" else name] = value("initial")
        lines += [f"{n} = {v}" for n, v in components.items()]
    lines.append(value("extra"))
    # flags alone only when they carry h: t_end was sized for that step
    if flags and (h is None or "--h" in flags) and draw(st.booleans()):
        return None, flags
    return "\n".join(lines) + "\n", flags


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run_invocations(), st.sampled_from(("run.csv",) * 3 + ("missing/run.csv",)),
       st.sampled_from((False,) * 3 + (True,)))
def test_main_run_exits_only_with_documented_codes(tmp_path, invocation, out, config_missing):
    config, flags = invocation
    argv = ["run", *flags, "--out", str(tmp_path / out)]
    config_path = tmp_path / "run.ini"
    if config is not None:
        config_path.write_text(config)
        argv += ["--config", str(config_path)]
    elif config_missing:
        argv += ["--config", str(tmp_path / "absent.ini")]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses a flag value
        code = exc.code
    assert code in (0, 2, 3, 4)


def test_parse_config_defaults():
    cfg = parse_config_text("[experiment]\nsystem = kepler\nmethod = euler\n"
                            "t_end = 1.0\n")
    assert cfg.h is None and cfg.sample_stride == 1
    cfg.validated()
    assert cfg.h == 0.005  # paper step size filled in


def test_validation_rejects_bad_combinations(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentConfig(system="nope", method="euler", t_end=1.0).validated()
    with pytest.raises(ConfigError):
        ExperimentConfig(system="kepler", method="euler", h=0.5,
                         t_end=0.1).validated()
    # a method the system does not have and a gain it does not take are
    # checked where the system is built and stepped, before any output
    out = tmp_path / "never.csv"
    for system, method, gains in (("kepler", "splitting", {}),
                                  ("rigid_body", "stormer_verlet_a", {}),
                                  ("kepler", "euler", {"k9": 1.0})):
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig(system=system, method=method, t_end=1.0,
                                            gains=gains, output_path=str(out)))
        assert not out.exists()
    for system, method in (("kepler", "splitting"), ("rigid_body", "stormer_verlet_b")):
        with pytest.raises(ConfigError, match=f"system '{system}'"):
            make_advance(make_system(system), method, ExperimentConfig())


def test_run_experiment_writes_csv_and_summary(tmp_path, kepler_sys):
    out = tmp_path / "kepler.csv"
    cfg = ExperimentConfig(system="kepler", method="feedback_euler",
                           h=0.005, t_end=0.5, output_path=str(out),
                           sample_stride=1)
    summary = run_experiment(cfg)
    assert summary.steps_taken == steps_for(0.5, 0.005)
    header, rows = read_csv(out)
    assert header == ["t", "x0", "x1", "x2", "v0", "v1", "v2", "V",
                      "dL", "dA", "dE"]
    assert len(rows) == summary.steps_taken + 1

    # states round-trip exactly through the 17-significant-digit format
    advance = make_advance(kepler_sys, "feedback_euler", cfg)
    times, states = rollout(advance, kepler_sys.initial_state, 0.005,
                            summary.steps_taken, stride=1)
    for k in (1, 37, 100):
        parsed = np.array([float(c) for c in rows[k][1:7]])
        assert np.array_equal(parsed, states[k])


def test_run_experiment_feedback_rk4(tmp_path, kepler_sys):
    out = tmp_path / "rk4fb.csv"
    cfg = ExperimentConfig(system="kepler", method="feedback_rk4",
                           h=0.005, t_end=1.0, output_path=str(out))
    summary = run_experiment(cfg)
    # the fourth-order feedback run hugs the level set far tighter than Euler
    assert summary.max_drift["V"] <= 1e-12
    assert out.exists()


def test_run_experiment_deterministic_output(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        cfg = ExperimentConfig(system="rigid_body", method="feedback_euler",
                               h=1e-3, t_end=0.2,
                               output_path=str(tmp_path / name))
        run_experiment(cfg)
        outs.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1]


def test_run_experiment_custom_initial_condition(tmp_path):
    initial = {"x0": 1.0, "x1": 0.0, "x2": 0.0, "v0": 0.0, "v1": 1.0, "v2": 0.0}
    cfg = ExperimentConfig(system="kepler", method="euler", h=0.01, t_end=0.1,
                           initial_condition=initial,
                           output_path=str(tmp_path / "c.csv"))
    summary = run_experiment(cfg)
    system = build_system(cfg)
    assert np.array_equal(system.initial_state,
                          np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0]))
    assert summary.steps_taken == 10


def test_run_experiment_missing_initial_component():
    cfg = ExperimentConfig(system="kepler", method="euler", t_end=1.0,
                           initial_condition={"x0": 1.0})
    with pytest.raises(ConfigError):
        run_experiment(cfg)


def test_config_error_raised_before_any_output(tmp_path):
    out = tmp_path / "never.csv"
    cfg = ExperimentConfig(system="kepler", method="splitting", h=0.005,
                           t_end=1.0, output_path=str(out))
    with pytest.raises(ConfigError):
        run_experiment(cfg)
    assert not out.exists()


def test_main_run_with_config_and_overrides(tmp_path, capsys):
    out = tmp_path / "run.csv"
    config_path = tmp_path / "exp.ini"
    config_path.write_text(SAMPLE_CONFIG.format(out=out))
    code = main(["run", "--config", str(config_path), "--t-end", "1.0",
                 "--stride", "5"])
    assert code == 0
    printed = capsys.readouterr().out
    assert f"steps_taken = {steps_for(1.0, 0.005)}" in printed
    assert out.exists()


# A config value and a different flag value for each [experiment] key.
_CONFIG_AND_FLAG = {
    "system": ("kepler", "perturbed_kepler"),
    "method": ("euler", "rk4"),
    "h": ("0.01", "0.02"),
    "t_end": ("1.0", "2.0"),
    "out": ("config.csv", "flag.csv"),
    "stride": ("3", "4"),
}


@pytest.mark.parametrize("row", RUN_FLAGS, ids=lambda r: r.key)
def test_main_flag_beats_the_config_value_and_gains_merge(tmp_path, monkeypatch, row):
    config_path = tmp_path / "exp.ini"
    config_path.write_text(
        "[experiment]\n"
        + "".join(f"{key} = {pair[0]}\n" for key, pair in _CONFIG_AND_FLAG.items())
        + "[gains]\nk1 = 1\nk2 = 2\n")
    seen = []
    monkeypatch.setattr("lyapint.cli.run_experiment",
                        lambda cfg: seen.append(cfg) or RunSummary({}, 0.0, 0.0, 0, ""))
    flag = "--" + row.key.replace("_", "-")
    assert main(["run", "--config", str(config_path), flag, _CONFIG_AND_FLAG[row.key][1],
                 "--gains", "k2=5"]) == 0
    expected = parse_config_text(config_path.read_text())
    setattr(expected, row.field, row.parse(_CONFIG_AND_FLAG[row.key][1]))
    expected.gains = {"k1": 1.0, "k2": 5.0}
    assert seen == [expected]


def test_main_flag_only_run(tmp_path, capsys):
    out = tmp_path / "flags.csv"
    code = main(["run", "--system", "perturbed_kepler", "--method",
                 "stormer_verlet_a", "--h", "0.03", "--t-end", "3.0",
                 "--gains", "k1=2,k2=3", "--out", str(out)])
    assert code == 0
    assert out.exists()


def test_main_exit_code_config_error(tmp_path):
    out = tmp_path / "bad.csv"
    code = main(["run", "--system", "kepler", "--method", "splitting",
                 "--t-end", "1.0", "--out", str(out)])
    assert code == 2
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_main_exit_code_mid_run_failure(tmp_path, capsys):
    # a huge step makes the rigid-body Euler iteration overflow within a
    # few steps; the partial trace must still be on disk
    out = tmp_path / "partial.csv"
    code = main(["run", "--system", "rigid_body", "--method", "euler",
                 "--h", "10.0", "--t-end", "1000.0", "--out", str(out)])
    assert code == 3
    header, rows = read_csv(out)
    assert header[0] == "t"
    assert 1 <= len(rows) < 50
    assert "aborted" in capsys.readouterr().err


@pytest.mark.parametrize("h, t_end", [("nan", "1.0"), ("inf", "1.0"),
                                       ("0.01", "inf"), ("0.01", "nan"),
                                       ("1e-300", "1e12")])  # t_end / h overflows
def test_main_rejects_non_finite_step_or_horizon(tmp_path, h, t_end):
    out = tmp_path / "never.csv"
    code = main(["run", "--system", "kepler", "--method", "euler", "--h", h,
                 "--t-end", t_end, "--out", str(out)])
    assert code == 2
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("system, method, h", [
    ("perturbed_kepler", "feedback_euler", "0.3"),  # delta / r**3 overflows
    ("perturbed_kepler", "feedback_rk4", "1.0"),    # r**4 overflows
    ("kepler", "feedback_euler", "0.5"),
])
def test_main_arithmetic_overflow_mid_run_exits_3(tmp_path, capsys, system, method, h):
    out = tmp_path / "partial.csv"
    code = main(["run", "--system", system, "--method", method, "--h", h,
                 "--t-end", "400", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "run aborted at step" in err
    completed = int(re.search(r"\((\d+) completed steps\)", err).group(1))
    _, rows = read_csv(out)
    assert len(rows) == completed + 1


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_run_experiment_wraps_overflow_with_step_and_partial_summary(tmp_path):
    cfg = ExperimentConfig(system="perturbed_kepler", method="feedback_euler",
                           h=0.3, t_end=400.0, output_path=str(tmp_path / "p.csv"))
    with pytest.raises(IntegrationError) as info:
        run_experiment(cfg)
    exc = info.value
    assert isinstance(exc.__cause__, OverflowError)
    assert exc.partial_summary.steps_taken == exc.step - 1
    assert set(exc.partial_summary.max_drift) == {"dE", "dL", "V"}


VALID_EXPERIMENT = "[experiment]\nsystem = kepler\nmethod = projection_euler\nt_end = 1.0\n"


# Each row: the config text, the --out directory, and a part of the message.
@pytest.mark.parametrize("config, out_dir, message", [
    (VALID_EXPERIMENT + "stride = abc\n", None, "config error"),
    (VALID_EXPERIMENT + "[gains]\nk1 = abc\n", None, "config error"),
    (VALID_EXPERIMENT + "[gains]\nk1 = inf\n", None, "config error"),
    (VALID_EXPERIMENT + "[gains]\nk1 = nan\n", None, "config error"),
    (VALID_EXPERIMENT + "[initial]\nx0 = abc\n", None, "config error"),
    (VALID_EXPERIMENT + "[initial]\ncondition = paper_default\nx0 = 1.5\n", None,
     "config error"),
    (VALID_EXPERIMENT + "[initial]\ncondition = circular\n"
     "x0 = 1\nx1 = 0\nx2 = 0\nv0 = 0\nv1 = 1\nv2 = 0\n", None, "config error"),
    (VALID_EXPERIMENT + "[projection]\nmax_iter = 0\n", None,
     "config error: projection max_iter must be at least 1, got 0"),
    (VALID_EXPERIMENT + "[projection]\ntol = 0\n", None,
     "config error: projection tol must be positive and finite, got 0.0"),
    (VALID_EXPERIMENT + "[projection]\ntol = -1e-8\n", None,
     "config error: projection tol must be positive and finite, got -1e-08"),
    (VALID_EXPERIMENT + "[projection]\ntol = inf\n", None,
     "config error: projection tol must be positive and finite, got inf"),
    (VALID_EXPERIMENT + "strid = 5\n", None, "config error"),
    (VALID_EXPERIMENT + "[outputs]\nstride = 5\n", None, "config error"),
    # the params name a non-finite constant and its value
    (VALID_EXPERIMENT + "[constants]\nmu = nan\n", None,
     "config error: constant mu must be finite, got nan"),
    (VALID_EXPERIMENT + "[constants]\nmu = inf\n", None,
     "config error: constant mu must be finite, got inf"),
    ("[experiment]\nsystem = rigid_body\nmethod = euler\nt_end = 1.0\n"
     "[constants]\ninertia = inf,2,1\n", None,
     "config error: constant inertia must be finite, got (inf, 2.0, 1.0)"),
    *((f"[experiment]\nsystem = perturbed_kepler\nmethod = euler\nt_end = 1.0\n"
       f"[constants]\n{name} = inf\n", None,
       f"config error: constant {name} must be finite, got inf") for name in ("mu", "delta")),
    # the params check the moments before the start's integrals unpack them
    ("[experiment]\nsystem = rigid_body\nmethod = euler\nt_end = 1.0\n"
     "[constants]\ninertia = 1,2\n", None,
     "config error: inertia must be three positive principal moments"),
    # so do both central-force systems with mu, whatever the start
    *((f"[experiment]\nsystem = {system}\nmethod = euler\nt_end = 1.0\n[constants]\n"
       "mu = -1\n[initial]\nx0 = 0\nx1 = 0\nx2 = 0\nv0 = 0\nv1 = 0\nv2 = 0\n", None,
       f"config error: {text}")
      for system, text in (("kepler", "gravitational parameter must be positive"),
                           ("perturbed_kepler", "need mu > 0 and delta >= 0, got mu = -1.0"))),
    (None, None, "config error"),  # the --config file does not exist
    (VALID_EXPERIMENT, "missing", "config error"),  # --out inside a directory that does not exist
], ids=["stride", "gain", "gain_inf", "gain_nan", "initial",
        "initial_beside_paper_default", "initial_unknown_condition", "max_iter", "tol_zero", "tol_negative", "tol_inf",
        "unknown_key", "unknown_section", "mu_nan", "mu_inf", "inertia_inf",
        "perturbed_kepler_mu_inf", "perturbed_kepler_delta_inf", "inertia_short",
        "kepler_mu_at_origin", "perturbed_kepler_mu_at_origin", "missing_config",
        "missing_out_dir"])
def test_main_bad_input_exits_2_before_integration(tmp_path, capsys, config, out_dir, message):
    config_path = tmp_path / "exp.ini"
    if config is not None:
        config_path.write_text(config)
    out = tmp_path / (out_dir or ".") / "never.csv"
    code = main(["run", "--config", str(config_path), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("setting, message", [
    ("tol = 0", "projection tol must be positive and finite, got 0.0"),
    ("tol = nan", "projection tol must be positive and finite, got nan"),
    ("max_iter = 0", "projection max_iter must be at least 1, got 0"),
], ids=["tol_zero", "tol_nan", "max_iter"])
@pytest.mark.parametrize("method", METHOD_NAMES)
def test_main_bad_projection_setting_exits_2_with_every_method(tmp_path, capsys, method,
                                                               setting, message):
    # ProjectionConfig states the rules; make_advance builds it whatever the method
    system = "kepler" if method.startswith("stormer_verlet") else "rigid_body"
    config = tmp_path / "exp.ini"
    config.write_text(f"[experiment]\nsystem = {system}\nmethod = {method}\nt_end = 1.0\n"
                      f"[projection]\n{setting}\n")
    out = tmp_path / "never.csv"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


class FailingCSV:
    """A CSV handle that raises ENOSPC, as a full disk does, at write number
    ``fail_at`` (0 is the header) or, for ``fail_at = "close"``, at close."""

    def __init__(self, path, fail_at):
        self._file = open(path, "w", newline="")
        self._fail_at = fail_at
        self._writes = 0

    def write(self, text):
        if self._writes == self._fail_at:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self._writes += 1
        return self._file.write(text)

    def close(self):
        self._file.close()
        if self._fail_at == "close":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _run_into_failing_csv(monkeypatch, capsys, out, fail_at, argv):
    monkeypatch.setattr("lyapint.cli.open", lambda path, *a, **kw: FailingCSV(path, fail_at),
                        raising=False)
    code = main(["run", *argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err and "flushed" not in err
    return err


# Kepler RK4 at h = 0.005 to t = 1 writes the header, then the rows of steps 0..200.
@pytest.mark.parametrize("fail_at, step", [(0, 0), (1, 0), (51, 50), ("close", 200)],
                         ids=["header", "first_row", "mid_run_row", "close"])
def test_main_csv_write_failure_exits_3_with_the_step(tmp_path, monkeypatch, capsys,
                                                       fail_at, step):
    out = tmp_path / "full.csv"
    err = _run_into_failing_csv(monkeypatch, capsys, out, fail_at,
                                ["--system", "kepler", "--method", "rk4", "--t-end", "1"])
    full = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    assert f"run aborted at step {step}: {full}\n" in err


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_main_close_failure_after_an_overflow_exits_3_unflushed(tmp_path, monkeypatch, capsys):
    # the drift of step 7 overflows (`run` exits 3 at step 7, 6 steps flushed);
    # here the partial CSV then fails to flush
    out = tmp_path / "full.csv"
    err = _run_into_failing_csv(monkeypatch, capsys, out, "close",
                                ["--system", "perturbed_kepler", "--method", "feedback_euler",
                                 "--h", "0.3", "--t-end", "400"])
    assert "run aborted at step 7: " in err


def test_run_experiment_closes_the_csv_on_any_exception(tmp_path, monkeypatch):
    # an exception that is neither a run failure nor an OSError still closes the file
    handles = []

    def open_and_keep(path, *args, **kwargs):
        handles.append(open(path, *args, **kwargs))
        return handles[-1]

    def interrupt(advance, x0, h, n_steps, observe):
        observe(0, x0)
        raise KeyboardInterrupt

    monkeypatch.setattr("lyapint.cli.open", open_and_keep, raising=False)
    monkeypatch.setattr("lyapint.cli.integrate", interrupt)
    out = tmp_path / "interrupted.csv"
    with pytest.raises(KeyboardInterrupt):
        run_experiment(ExperimentConfig(system="kepler", method="rk4", t_end=1.0,
                                        output_path=str(out)))
    assert handles[0].closed
    assert len(out.read_text().splitlines()) == 2  # the header and the start row


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs Linux's /dev/full")
def test_main_run_into_dev_full_exits_3_without_a_traceback():
    # the CSV fails at the write that flushes its first buffer
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    proc = subprocess.run([sys.executable, "-m", "lyapint.cli", "run", "--system", "kepler",
                           "--method", "rk4", "--t-end", "1", "--out", "/dev/full"],
                          env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr and "flushed" not in proc.stderr
    assert re.fullmatch(r"run aborted at step \d+: \[Errno \d+\] [^\n]+\n", proc.stderr)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs Linux's /dev/full")
@pytest.mark.parametrize("argv", [
    ["run", "--system", "kepler", "--method", "rk4", "--t-end", "1", "--out", "run.csv"],
    ["check", "--system", "perturbed_kepler"],
], ids=["run", "check"])
def test_main_stdout_into_dev_full_exits_3_without_a_traceback(tmp_path, argv):
    # stdout block-buffered, as in a shell: the summary fits in its buffer, so
    # the write fails at main's flush; the interpreter's own flush must not fail again
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "lyapint.cli", *argv], env=env,
                              cwd=tmp_path, stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 3
    assert re.fullmatch(r"cannot write stdout: \[Errno \d+\] [^\n]+\n", proc.stderr)
    if argv[0] == "run":  # the CSV is whole: the header and the rows of steps 0..200
        assert len((tmp_path / "run.csv").read_text().splitlines()) == 202


@pytest.mark.parametrize("method", ["feedback_euler", "feedback_rk4"])
@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_feedback_rows_are_the_drift_metrics_of_their_states(tmp_path, capsys, name, method):
    # a feedback run takes each state's drift row from the evaluation of the
    # field that steps it; drift_metrics, the composition of the system's
    # values and drift functions, is the oracle, bit for bit
    out = tmp_path / "fused.csv"
    h = module(name).BENCHMARK_STEP
    assert main(["run", "--system", name, "--method", method, "--h", repr(h),
                 "--t-end", repr(40.5 * h), "--out", str(out)]) == 0
    system = make_system(name)
    header, rows = read_csv(out)
    first = 1 + system.dim  # t and the state come first
    assert header[first:] == list(system.drift_names)
    assert len(rows) == 41
    for row in rows:
        state = tuple(map(float, row[1:first]))
        assert row[first:] == ["%.17g" % v for v in system.drift_metrics(state)]
    printed = dict(re.findall(r"^max_(\w+) = (\S+)$", capsys.readouterr().out, re.M))
    assert list(printed) == [*system.drift_names[1:], "V"]  # V is the summary's last
    for i, column in enumerate(system.drift_names, start=first):
        assert float(printed[column]) == max(float(row[i]) for row in rows)


def integral_evaluations(name, run) -> int:
    """The calls of system ``name``'s ``_feedback`` and ``_values``, through
    which its drift reads its integrals, in ``run()``, by code object: the
    model holds the kernels themselves, not their module names."""
    m = module(name)
    counted = {m._feedback.__code__, m._values.__code__}
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in counted:
            calls.append(1)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return len(calls)


@pytest.mark.parametrize("method, per_step", [("feedback_euler", 1), ("feedback_rk4", 4),
                                              ("euler", 1)])
@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_a_run_evaluates_the_integrals_once_per_state(tmp_path, name, method, per_step):
    # A system's integrals are evaluated by _feedback (the feedback field)
    # and by its drift's values function (the drift row alone): a feedback
    # step's first stage also gives its start state's row, so n more steps
    # cost n more evaluations per stage, and no drift row of their own.
    h = module(name).BENCHMARK_STEP

    def evaluations(n):
        cfg = ExperimentConfig(system=name, method=method, h=h, t_end=(n + 0.5) * h,
                               output_path=str(tmp_path / "count.csv"))
        return integral_evaluations(name, lambda: run_experiment(cfg))

    assert evaluations(40) - evaluations(20) == 20 * per_step


@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_the_harness_evaluates_the_integrals_once_per_state(name):
    # the fixtures observe a feedback run as `lyapint run` does
    system, h = make_system(name), module(name).BENCHMARK_STEP

    def evaluations(n):
        return integral_evaluations(
            name, lambda: run_with_metrics(system, "feedback_euler", h, (n + 0.5) * h))

    assert evaluations(40) - evaluations(20) == 20


@pytest.mark.parametrize("name, method", [("kepler", "feedback_euler"),
                                          ("perturbed_kepler", "projection_euler")])
def test_the_harness_and_the_cli_report_the_same_maxima(tmp_path, name, method):
    h = module(name).BENCHMARK_STEP
    cfg = ExperimentConfig(system=name, method=method, h=h, t_end=200.5 * h,
                           output_path=str(tmp_path / "cell.csv"))
    cli = run_experiment(cfg).max_drift
    harness = run_with_metrics(make_system(name), method, h, cfg.t_end, cfg=cfg).maxima
    assert [(k, v.hex()) for k, v in harness.items()] == [(k, v.hex()) for k, v in cli.items()]


# At x = 1e80, U'(r)'s r**4 overflows and U(r)'s r**3 does not: the start's
# drift row is written, then the field of step 1 fails.
FAR_PK_START = "x0 = 1e80\nx1 = 0\nx2 = 0\nv0 = 0\nv1 = 1\nv2 = 0\n"


@pytest.mark.parametrize("method", ["feedback_euler", "feedback_rk4"])
def test_main_field_overflow_at_the_start_fails_step_1(tmp_path, capsys, method):
    config = tmp_path / "exp.ini"
    config.write_text(f"[experiment]\nsystem = perturbed_kepler\nmethod = {method}\n"
                      f"h = 0.03\nt_end = 1\n[initial]\n{FAR_PK_START}")
    out = tmp_path / "partial.csv"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 3
    assert re.fullmatch(r"run aborted at step 1: OverflowError [^\n]+\n"
                        r"partial CSV flushed to \S+ \(0 completed steps\)\n",
                        capsys.readouterr().err)
    assert out.read_text().splitlines() == ["t,x0,x1,x2,v0,v1,v2,V,dE,dL",
                                            "0,1e+80,0,0,0,1,0,0,0,0"]


@pytest.mark.parametrize("system", ["kepler", "perturbed_kepler"])
def test_main_rejects_a_gain_the_system_does_not_have(tmp_path, capsys, system):
    out = tmp_path / "never.csv"
    code = main(["run", "--system", system, "--method", "euler", "--t-end", "0.1",
                 "--gains", "k0=7", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert "unknown gain 'k0'" in capsys.readouterr().err



@pytest.mark.parametrize("eccentricity", ["1", "1.5", "-0.1", "nan"])
def test_main_benchmark_eccentricity_outside_0_1_exits_2(tmp_path, capsys, eccentricity):
    # at e = 1 the perihelion speed sqrt((1 + e) / (1 - e)) divides by zero
    config = tmp_path / "exp.ini"
    config.write_text("[experiment]\nsystem = perturbed_kepler\nmethod = euler\n"
                      f"t_end = 1.0\n[constants]\neccentricity = {eccentricity}\n")
    out = tmp_path / "never.csv"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert "eccentricity" in capsys.readouterr().err
    assert not out.exists()


PK_START = "x0 = 0.4\nx1 = 0\nx2 = 0\nv0 = 0\nv1 = 2\nv2 = 0\n"


@pytest.mark.parametrize("system, key, value", [
    ("kepler", "delta", 0.5), ("kepler", "inertia", (3.0, 2.0, 1.0)),
    ("rigid_body", "mu", 2.0), ("perturbed_kepler", "inertia", (3.0, 2.0, 1.0)),
])
def test_make_system_rejects_a_constant_the_system_does_not_take(system, key, value):
    with pytest.raises(ValueError, match=f"unknown constant '{key}' for system '{system}'; "
                                         "it takes"):
        make_system(system, **{key: value})


@pytest.mark.parametrize("system, sections, key", [
    ("kepler", "[constants]\ninertia = 3,2,1\n", "inertia"),
    ("kepler", "[constants]\ndelta = 0.5\n", "delta"),
    ("rigid_body", "[constants]\nmu = 2\n", "mu"),
    ("perturbed_kepler", "[constants]\neccentricity = 0.5\n[initial]\n" + PK_START,
     "eccentricity"),
], ids=["inertia_on_kepler", "delta_on_kepler", "mu_on_rigid_body",
        "eccentricity_with_explicit_start"])
def test_main_constant_the_run_does_not_use_exits_2(tmp_path, capsys, system, sections, key):
    config = tmp_path / "exp.ini"
    config.write_text(f"[experiment]\nsystem = {system}\nmethod = euler\nt_end = 1\n"
                      + sections)
    out = tmp_path / "never.csv"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    if key != "eccentricity":  # eccentricity is a constant of the system, but not of this start
        assert str(module(system).CONSTANTS) in err
    assert not out.exists()


def test_main_kepler_small_mu_with_a_bound_start_runs(tmp_path, capsys):
    # the targets come from the given start, not from the benchmark orbit at
    # this mu (which is not bound: |A0| = 1.3 > mu)
    config = tmp_path / "exp.ini"
    config.write_text("[experiment]\nsystem = kepler\nmethod = feedback_euler\nt_end = 0.1\n"
                      "[constants]\nmu = 0.5\n[initial]\n"
                      "x0 = 1\nx1 = 0\nx2 = 0\nv0 = 0\nv1 = 0.5\nv2 = 0\n")
    out = tmp_path / "small_mu.csv"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert "steps_taken = 20" in capsys.readouterr().out
    assert out.read_text().splitlines()[0] == "t,x0,x1,x2,v0,v1,v2,V,dL,dA,dE"


def test_main_far_perturbed_kepler_start_exits_2(tmp_path, capsys):
    # |x| = 1e103: r**3 in the start state's energy overflows Python floats
    config = tmp_path / "exp.ini"
    config.write_text("[experiment]\nsystem = perturbed_kepler\nmethod = euler\n"
                      "t_end = 1\n[initial]\nx0 = 1e103\nx1 = 0\nx2 = 0\n"
                      "v0 = 0\nv1 = 1\nv2 = 0\n")
    out = tmp_path / "never.csv"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert "OverflowError at the initial state" in capsys.readouterr().err
    assert not out.exists()


FLOAT_METHODS = ("feedback_euler", "feedback_rk4", "euler", "rk4", "splitting",
                 "stormer_verlet_a", "stormer_verlet_b", "projection_euler")


def _run_python(code, tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True)


def test_float_methods_run_without_numpy(tmp_path):
    # sys.modules["numpy"] = None makes every numpy import raise ImportError:
    # the import of the CLI, a `run` of each float method, a `figure` and a
    # `check` of each system must need none; the projection runs count their
    # correction builds, so a Newton loop that iterates is seen to run
    # without numpy
    code = f"""if True:
        import sys
        sys.modules["numpy"] = None
        import lyapint, lyapint.cli
        from lyapint import integrators
        from lyapint.systems import SYSTEM_NAMES, module
        builds = []
        pseudo_inverse = integrators._pseudo_inverse
        integrators._pseudo_inverse = lambda jac: builds.append(1) or pseudo_inverse(jac)
        for system in SYSTEM_NAMES:
            for method in {FLOAT_METHODS!r}:
                try:
                    lyapint.cli.make_advance(lyapint.make_system(system), method,
                                             lyapint.cli.ExperimentConfig())
                except lyapint.ConfigError:
                    continue  # a method this system does not define
                h = module(system).BENCHMARK_STEP
                argv = ["run", "--system", system, "--method", method, "--h", repr(h),
                        "--t-end", repr(5.5 * h), "--out", f"{{system}}_{{method}}.csv"]
                builds.clear()
                if lyapint.cli.main(argv) != 0:
                    sys.exit(f"{{system}} {{method}} failed")
                print(system, method, len(builds), file=sys.stderr)
        # a figure's curves are float-method runs, its projection curve too
        if lyapint.cli.main(["figure", "--id", "F8", "--scale", "0.0005", "--out-dir", "fig"]):
            sys.exit("figure F8 failed")
        for system in SYSTEM_NAMES:
            if lyapint.cli.main(["check", "--system", system]):
                sys.exit(f"check {{system}} failed")
        """
    proc = _run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    passes = [line.split(".", 1)[0] for line in proc.stdout.splitlines()
              if line.startswith("PASS ")]
    assert passes == ["PASS rigid_body"] * 3 + ["PASS kepler"] * 4 + ["PASS perturbed_kepler"] * 4
    cells = dict(line.rsplit(" ", 1) for line in proc.stderr.split("\n")[:-1])
    assert len(cells) == 20 and "rigid_body splitting" in cells
    assert "kepler stormer_verlet_b" in cells and "rigid_body stormer_verlet_a" not in cells
    assert int(cells["perturbed_kepler projection_euler"]) >= 1


def _one_step_run(system):
    h = module(system).BENCHMARK_STEP
    return ["run", "--system", system, "--method", "feedback_euler", "--h", repr(h),
            "--t-end", repr(1.5 * h), "--out", "one.csv"]


@pytest.mark.parametrize("system", SYSTEM_NAMES)
def test_run_and_check_load_only_their_system_module(tmp_path, system):
    # each system module, and diagnostics, is imported on first use: a
    # one-step `run` loads its system alone, and a `check` of one system
    # adds diagnostics and leaves the other two systems unloaded
    run = _one_step_run(system)
    code = f"""if True:
        import contextlib, io, sys
        import lyapint.cli

        def loaded():
            return [name for name in ({SYSTEM_NAMES!r} + ("diagnostics",))
                    if "lyapint." + name in sys.modules]

        print(loaded())
        for argv in ({run!r}, ["check", "--system", {system!r}]):
            with contextlib.redirect_stdout(io.StringIO()):
                code = lyapint.cli.main(argv)
            print(code, loaded())
        """
    proc = _run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]", f"0 [{system!r}]", f"0 [{system!r}, 'diagnostics']"]


@pytest.mark.parametrize("system", SYSTEM_NAMES)
def test_a_run_defines_four_dataclasses(tmp_path, system):
    # @dataclass compiles its methods in every process; the plain records
    # are NamedTuples, and only the types that need dataclasses.replace,
    # fields, __post_init__ or mutability stay dataclasses
    run = _one_step_run(system)
    code = f"""if True:
        import contextlib, dataclasses, io, sys
        import lyapint.cli

        with contextlib.redirect_stdout(io.StringIO()):
            assert lyapint.cli.main({run!r}) == 0
        print(sorted(name for module, m in list(sys.modules.items())
                     if module.startswith("lyapint")
                     for name, value in vars(m).items()
                     if isinstance(value, type) and value.__module__ == module
                     and dataclasses.is_dataclass(value)))
        """
    proc = _run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    params = type(make_system(system).params).__name__
    expected = sorted(["ExperimentConfig", "FirstIntegralMap", "SystemModel", params])
    assert proc.stdout.splitlines() == [repr(expected)]


@pytest.mark.filterwarnings("ignore:overflow")
def test_main_projection_with_an_overflowing_jacobian_exits_3(tmp_path, capsys):
    # R[0][0] = 1e200 squares to inf in the Gram matrix of the constraint Jacobian
    components = dict.fromkeys(module("rigid_body").STATE_NAMES, 0.0)
    components.update(r00=1e200, r11=1.0, r22=1.0, w0=1.0, w1=1.0, w2=1.0)
    config = tmp_path / "exp.ini"
    config.write_text("[experiment]\nsystem = rigid_body\nmethod = projection_euler\n"
                      "t_end = 0.01\n[initial]\n"
                      + "".join(f"{k} = {v!r}\n" for k, v in components.items()))
    out = tmp_path / "partial.csv"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 3
    assert "run aborted at step 1: non-finite constraint Jacobian" in capsys.readouterr().err
    assert len(read_csv(out)[1]) == 1


# README's cell where a step lands far from the level set: with the
# correction matrix frozen at the Euler point, the energy residual flips
# sign at every iteration and stays near 2.7e-3
STALL_CELL = ("[experiment]\nsystem = perturbed_kepler\nmethod = projection_euler\n"
              "h = 0.03\nt_end = 3\n[constants]\nmu = 1.5\ndelta = 0.01\n"
              "[initial]\nx0 = 0.4\nx1 = 0.01\nx2 = 0\nv0 = 0\nv1 = 2\nv2 = 0.01\n"
              "[projection]\ntol = 1e-8\n")


def test_main_projection_stall_exits_3_with_the_start_row(tmp_path, capsys):
    # one iteration, which does not reach the level set, is all max_iter allows
    assert issubclass(ProjectionError, IntegrationError)
    assert issubclass(RankError, IntegrationError)
    config = tmp_path / "exp.ini"
    config.write_text(STALL_CELL + "max_iter = 1\n")
    out = tmp_path / "partial.csv"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "run aborted at step 1: projection residual 2.343e-03 above tolerance 1.000e-08 "
        "after 1 iterations",
        f"partial CSV flushed to {out} (0 completed steps)"]
    assert out.read_text().splitlines() == ["t,x0,x1,x2,v0,v1,v2,V,dE,dL",
                                            "0,0.40000000000000002,0.01,0,0,2,0.01,0,0,0"]


def test_main_projection_rebuilding_its_correction_runs_the_stall_cell(tmp_path, capsys):
    # an iteration that fails to halve the residual rebuilds the correction
    # matrix at its iterate, and every step lands within tol of the level set
    config = tmp_path / "exp.ini"
    config.write_text(STALL_CELL)
    out = tmp_path / "run.csv"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert "steps_taken = 100\n" in capsys.readouterr().out
    header, rows = read_csv(out)
    assert len(rows) == 101 and float(rows[-1][0]) == pytest.approx(3.0)
    dE, dL = header.index("dE"), header.index("dL")
    assert max(max(float(row[dE]), float(row[dL])) for row in rows) <= 1e-8


def test_main_projection_predicted_contraction_runs_the_stall_cell_at_h_0_05(tmp_path, capsys):
    # at h = 0.05 step 1's residual contracts at a ratio near 0.45 after its
    # halving rebuilds, too slowly for the iterations max_iter leaves; the
    # predicted-contraction rule rebuilds there, and the cell runs to t = 3
    config = tmp_path / "exp.ini"
    config.write_text(STALL_CELL.replace("h = 0.03\n", "h = 0.05\n"))
    out = tmp_path / "run.csv"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert "steps_taken = 60\n" in capsys.readouterr().out
    header, rows = read_csv(out)
    assert len(rows) == 61 and float(rows[-1][0]) == pytest.approx(3.0)
    dE, dL = header.index("dE"), header.index("dL")
    assert max(max(float(row[dE]), float(row[dL])) for row in rows) <= 1e-8


def test_main_bad_gains_string():
    code = main(["run", "--system", "kepler", "--method", "euler",
                 "--t-end", "1.0", "--gains", "k1:4"])
    assert code == 2


@pytest.mark.parametrize("gains", ["k1=1,k1=2", "k1=1, k1 = 1"])
def test_main_repeated_gain_exits_2(tmp_path, capsys, gains):
    # a config file's [gains] refuses a repeated key; the flag names it too
    # instead of keeping the last value
    out = tmp_path / "never.csv"
    code = main(["run", "--system", "kepler", "--method", "feedback_euler",
                 "--t-end", "1.0", "--gains", gains, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: gain 'k1' given more than once in {gains!r}"]
    assert not out.exists()


def test_figure_unknown_id(tmp_path):
    code = main(["figure", "--id", "F10", "--scale", "0.5",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    with pytest.raises(ConfigError):
        replicate_figure("F2", 1.5, str(tmp_path))


def test_figure_out_dir_on_an_existing_file_exits_2(tmp_path, capsys):
    existing = tmp_path / "taken"
    existing.write_text("")
    code = main(["figure", "--id", "F2", "--scale", "0.001", "--out-dir", str(existing)])
    assert code == 2
    assert "cannot create output directory" in capsys.readouterr().err
    assert existing.read_text() == ""


def test_figure_f2_writes_one_csv_per_method(tmp_path):
    paths = replicate_figure("F2", 0.002, str(tmp_path / "f2"))
    assert set(paths) == {"feedback_euler", "projection_euler", "splitting",
                          "euler"}
    for method, path in paths.items():
        header, rows = read_csv(path)
        assert "dE" in header and "so3dev" in header and "V" in header
        assert len(rows) >= 2
        assert float(rows[-1][0]) == pytest.approx(1000.0 * 0.002, rel=1e-9)


def test_figure_f6_reproduces_drift_ordering(tmp_path):
    # two orbital periods: the symplectic baselines accumulate a secular
    # eccentricity-vector drift while the feedback run plateaus
    paths = replicate_figure("F6", 0.002, str(tmp_path / "f6"))
    assert set(paths) == {"feedback_euler", "projection_euler",
                          "stormer_verlet_a", "stormer_verlet_b"}

    def half_max_ratio(path):
        header, rows = read_csv(path)
        col = header.index("dA")
        values = np.array([float(r[col]) for r in rows])
        half = len(values) // 2
        return values[half:].max() / max(values[:half].max(), 1e-300)

    assert half_max_ratio(paths["stormer_verlet_a"]) > 1.5
    assert half_max_ratio(paths["stormer_verlet_b"]) > 1.5
    assert half_max_ratio(paths["feedback_euler"]) < 1.5


def test_figure_specs_cover_f1_to_f9():
    assert set(FIGURES) == {f"F{i}" for i in range(1, 10)}
    assert FIGURES["F8"].h_overrides.get("rk4") == 1e-4
    # F5-F7 run 1000 true periods of the benchmark orbit, not of a rounded one
    assert FIGURES["F5"].t_end == pytest.approx(1000 * make_system("kepler").period, rel=1e-15)
    assert steps_for(FIGURES["F5"].t_end, FIGURES["F5"].h) == 14_049_629


def test_check_command_passes_for_shipped_systems(capsys):
    for name in ("rigid_body", "kepler", "perturbed_kepler"):
        assert check_system(name) == 0
        printed = capsys.readouterr().out
        assert "PASS" in printed and "FAIL" not in printed


# A failing result of each report that `check --system perturbed_kepler` calls.
FAILING_REPORTS = {
    "orthogonality_report": lambda d: d.SampledReport(
        max_scaled_residual=1.0, n_samples=1, tolerance=1e-12),
    "gradient_agreement_report": lambda d: d.SampledReport(
        max_scaled_residual=1.0, n_samples=1, tolerance=1e-12),
    "check_rank_condition": lambda d: d.RankReport(
        min_singular_value=0.0, spectra=((1.0, 1.0, 1.0, 0.0),), threshold=1e-8),
}


@pytest.mark.parametrize("name", sorted(FAILING_REPORTS))
def test_check_command_exit_code_on_failure(monkeypatch, capsys, name):
    # the function set on lyapint.cli.<name> is the one check_system calls
    from lyapint import diagnostics

    calls = []

    def failing(*args, **kwargs):
        calls.append(name)
        return FAILING_REPORTS[name](diagnostics)

    monkeypatch.setattr(f"lyapint.cli.{name}", failing)
    assert check_system("perturbed_kepler") == 4
    assert calls == [name]
    assert capsys.readouterr().out.count("FAIL") == 1


def test_reports_set_on_the_cli_before_diagnostics_loads_are_kept(tmp_path):
    # check_system imports diagnostics on first use and keeps what is
    # already set on lyapint.cli, as perfbench's tracer sets its wrappers
    code = f"""if True:
        import contextlib, io, sys
        import lyapint.cli

        calls = []

        def spy(name):
            def report(*args, **kwargs):
                calls.append(name)
                from lyapint import diagnostics
                return getattr(diagnostics, name)(*args, **kwargs)
            return report

        for name in {sorted(FAILING_REPORTS)!r}:
            setattr(lyapint.cli, name, spy(name))
        assert "lyapint.diagnostics" not in sys.modules
        with contextlib.redirect_stdout(io.StringIO()):
            code = lyapint.cli.main(["check", "--system", "perturbed_kepler"])
        print(code, sorted(calls))
        """
    proc = _run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"0 {sorted(FAILING_REPORTS)!r}"]


def test_main_check_subcommand(capsys):
    assert main(["check", "--system", "perturbed_kepler"]) == 0
    assert "PASS" in capsys.readouterr().out
