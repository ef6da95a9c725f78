"""The README's examples run as written: its config file and its library sketch."""

import os
import re

from lyapint.cli import build_system, parse_config_text

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def fenced_blocks(language):
    with open(README) as handle:
        text = handle.read()
    return re.findall(rf"^```{language}\n(.*?)^```$", text, flags=re.M | re.S)


def test_readme_config_example_validates_and_builds():
    (config,) = fenced_blocks("ini")
    cfg = parse_config_text(config).validated()
    assert (cfg.system, cfg.method, cfg.h, cfg.t_end, cfg.sample_stride) == (
        "kepler", "feedback_euler", 0.005, 702.5, 100)
    assert cfg.gains == {"k1": 4.0, "k2": 2.0} and cfg.mu == 1.0
    assert (cfg.projection_tol, cfg.projection_max_iter) == (0.005, 25)
    system = build_system(cfg)
    assert system.name == "kepler" and system.params.mu == 1.0


def test_readme_library_sketch_runs(capsys):
    (sketch,) = fenced_blocks("python")
    exec(compile(sketch, "README.md", "exec"), {})
    assert float(capsys.readouterr().out) < 1e-5
