"""Benchmark for the lyapint CLI: end-to-end metrics, or a traced run per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from the
checkout's `src/`. `--workload all` runs every workload in turn.

Closed loop with one client: this one process spawns one `lyapint`
process at a time and waits for it. It runs rounds while one more round
still fits in `--seconds` (at least MIN_ROUNDS). Each round is one
operation, one calibration and one set-up sample, so the three are
interleaved over the run. Every time is taken from outside the child
processes.

The machine's speed drifts by up to a factor of two over seconds to
minutes, and user CPU time drifts with it, so raw medians of whole runs
disagree by more than the bounds. Each round therefore also times
calibrate.py, fixed work of the same kind that does not use the program,
and every time is rescaled to REFERENCE_S / (calibration seconds): the
time the process would take on a machine where the calibration takes
REFERENCE_S. An operation is rescaled by the mean of the calibrations
before and after it, a set-up sample by the calibration just before it.
One calibration per round serves both neighbours, so calibrating costs
a run fewer rounds. A faster program still reads faster; a faster
machine does not.

- `wall_s`: spawn-to-exit time of the workload's process(es), rescaled,
  median over the run's operations.
- `steps_per_s`: `steps_taken` printed by the CLI over the operation's
  rescaled `wall_s`, median. For check_all, the "steps" are the sampled
  states its validators report (`over N states`).
- `setup_s`: spawn-to-exit time of the same command configured to take one
  step (for check_all, one-step `feedback_euler` runs of its three systems,
  summed), rescaled, median.
- `peak_rss_mb`: the largest `ru_maxrss` of the operations' processes, read
  with `os.wait4`.

The raw medians and the calibration times are printed before the result.

Failed operations are the result's `failed` out of `attempted`; every
process's outputs are checked (see workloads.py), and the result is correct
only if none failed.

With `--trace 1` each round is one untraced and one traced operation (see
tracer.py); the per-layer metrics are medians over the traced runs, their
exact counts must repeat between traced runs, and `trace.overhead_frac` is
the traced over the untraced median `wall_s`, minus 1.

Only the benchmark's own processes are measured: no perf, ftrace,
system-wide tracing or cache dropping.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import tracer
import workloads as wl

ROOT = tracer.ROOT
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", ".work")
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")
CALIBRATE = os.path.join(ROOT, "perfbench", "calibrate.py")
# Calibration seconds of the reference machine: about the median time
# calibrate.py takes on a 2-core Intel Xeon virtual machine.
REFERENCE_S = 0.6
MIN_ROUNDS = 3
MIN_TRACED_RUNS = 2
MEASUREMENT_LIMITS = ("only the benchmark's own processes were measured; no perf, "
                      "ftrace, system-wide tracing or cache dropping")


@dataclass(frozen=True)
class Proc:
    wall_s: float
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int


def spawn(argv, tag: str) -> Proc:
    """Run argv from the checkout root to completion; time it from spawn to exit."""
    out_path = os.path.join(WORK, f"{tag}.stdout")
    err_path = os.path.join(WORK, f"{tag}.stderr")
    pythonpath = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + pythonpath if pythonpath else ""))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=out, stderr=err, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as out, open(err_path) as err:
        return Proc(wall, proc.returncode, out.read(), err.read(), usage.ru_maxrss)


@dataclass
class Op:
    """One operation's outside measurements: one or more processes."""

    wall_s: float
    steps: int
    maxrss_kb: int
    csv_rows: int = 0
    trace: dict = None


class Session:
    """Runs and checks the operations of one workload and seed."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._checked = {}      # CSV sha256 -> problems found in it
        self._first_csv = {}    # (tag, seed) -> sha256 of the set's first CSV

    def record(self, what: str, problems: list):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]

    def _lyapint(self, args, traced: bool, tag: str) -> Proc:
        if traced:
            _remove(self._trace_path(tag))
            return spawn([sys.executable, TRACER, self._trace_path(tag), *args], tag)
        return spawn([sys.executable, "-m", "lyapint.cli", *args], tag)

    def _trace_path(self, tag):
        return os.path.join(WORK, f"{tag}.trace.json")

    def run_cell(self, cell, seed: int, one_step: bool = False, traced: bool = False) -> Op:
        tag = f"{cell.name}{'_setup' if one_step else ''}"
        config = os.path.join("perfbench", ".work", f"{tag}.ini")
        csv = os.path.join("perfbench", ".work", f"{tag}.csv")
        with open(os.path.join(ROOT, config), "w") as handle:
            handle.write(wl.config_text(cell, seed, csv))
        args = ["run", "--config", config, "--out", csv]
        if one_step:
            args += ["--t-end", repr(wl.one_step_t_end(cell.h))]
        n_steps = 1 if one_step else cell.n_steps
        _remove(os.path.join(ROOT, csv))
        proc = self._lyapint(args, traced, tag)
        problems = [] if proc.code == 0 else [f"exit code {proc.code}: {proc.stderr.strip()}"]
        summary = wl.parse_summary(proc.stdout)
        steps_taken = summary.get("steps_taken", "")
        rows = 0
        if not problems:
            reference = None if one_step else wl.REFERENCE_DRIFTS.get(cell.name)
            problems += wl.check_run_stdout(cell, summary, seed, n_steps, reference)
            try:
                with open(os.path.join(ROOT, csv), "rb") as handle:
                    data = handle.read()
            except FileNotFoundError:
                data = b""
            digest = hashlib.sha256(data).hexdigest()
            if digest not in self._checked:
                self._checked[digest] = wl.check_csv(cell, data, n_steps)
            problems += self._checked[digest]
            if self._first_csv.setdefault((tag, seed), digest) != digest:
                problems.append("CSV bytes differ from the first run of this set")
            rows = data.count(b"\n") - 1
        self.record(f"{tag} seed {seed}", problems)
        trace = self._read_trace(tag) if traced else None
        steps = int(steps_taken) if steps_taken.isdigit() else 0
        return Op(proc.wall_s, steps, proc.maxrss_kb, rows, trace)

    def run_checks(self, suite, traced: bool = False) -> Op:
        wall = 0.0
        states = 0
        rss = 0
        trace = None
        for system in suite.systems:
            tag = f"{suite.name}_{system}"
            proc = self._lyapint(["check", "--system", system], traced, tag)
            problems, n = wl.check_validator_stdout(system, proc.stdout)
            if proc.code != 0:
                problems.insert(0, f"exit code {proc.code}: {proc.stderr.strip()}")
            self.record(tag, problems)
            wall += proc.wall_s
            states += n
            rss = max(rss, proc.maxrss_kb)
            if traced:
                trace = _merge(trace, self._read_trace(tag))
        return Op(wall, states, rss, 0, trace)

    def _read_trace(self, tag) -> dict:
        with open(self._trace_path(tag)) as handle:
            return json.load(handle)

    def operation(self, traced: bool = False) -> Op:
        if isinstance(self.workload, wl.CheckSuite):
            return self.run_checks(self.workload, traced)
        return self.run_cell(self.workload, self.seed, traced=traced)

    def setup_sample(self) -> float:
        """Spawn-to-exit seconds of the workload's one-step configuration."""
        if isinstance(self.workload, wl.CheckSuite):
            cells = [wl.RunCell(s, s, "feedback_euler", wl.BENCHMARK_STEP[s],
                                wl.one_step_t_end(wl.BENCHMARK_STEP[s]), 1)
                     for s in self.workload.systems]
            return sum(self.run_cell(c, wl.DEFAULT_SEED, one_step=True).wall_s for c in cells)
        return self.run_cell(self.workload, self.seed, one_step=True).wall_s


def _remove(path):
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def _merge(a, b):
    """Sum of two span summaries (the processes of one operation)."""
    if a is None:
        return b
    out = {"overruns": a["overruns"] + b["overruns"]}
    for key in ("calls", "total_ns", "self_ns", "edges"):
        merged = dict(a[key])
        for name, value in b[key].items():
            merged[name] = merged.get(name, 0) + value
        out[key] = merged
    return out


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _rounds(seconds: float, minimum: int):
    """Count rounds while one more of median length still ends within `seconds`."""
    started = time.perf_counter()
    lengths = []
    while len(lengths) < minimum or (
            time.perf_counter() - started + statistics.median(lengths) <= seconds):
        round_started = time.perf_counter()
        yield len(lengths)
        lengths.append(time.perf_counter() - round_started)


def calibrate() -> float:
    """Spawn-to-exit seconds of the fixed reference work."""
    proc = spawn([sys.executable, CALIBRATE, os.path.join(WORK, "calibrate.out")], "calibrate")
    if proc.code != 0:
        raise RuntimeError(f"calibrate.py exit code {proc.code}: {proc.stderr.strip()}")
    return proc.wall_s


def rescale(seconds: float, calibration_s: float) -> float:
    """Seconds on the reference machine, given the calibration time next to them."""
    return seconds * REFERENCE_S / calibration_s


def measure(session: Session, seconds: float) -> dict:
    """End-to-end metrics, untraced."""
    session.setup_sample()  # warm the page cache; checked, not timed
    calibrations = [calibrate()]
    setups, ops, walls = [], [], []
    for _ in _rounds(seconds, MIN_ROUNDS):
        op = session.operation()
        calibrations.append(calibrate())
        setup = session.setup_sample()
        ops.append(op)
        walls.append(rescale(op.wall_s, (calibrations[-2] + calibrations[-1]) / 2))
        setups.append(rescale(setup, calibrations[-1]))
    print(f"samples: {len(ops)} operations, {len(setups)} set-up runs, "
          f"{len(calibrations)} calibrations")
    print(f"raw medians: wall_s {statistics.median(op.wall_s for op in ops):.4f}, "
          f"calibration {statistics.median(calibrations):.4f} s")
    print(f"wall_s per operation: {' '.join(f'{w:.3f}' for w in walls)}")
    print(f"setup_s per sample: {' '.join(f'{s:.3f}' for s in setups)}")
    return {
        "wall_s": _metric(statistics.median(walls), "s"),
        "steps_per_s": _metric(statistics.median(op.steps / w for op, w in zip(ops, walls)),
                               "1/s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(max(op.maxrss_kb for op in ops) / 1024.0, "MB"),
    }


def measure_layers(session: Session, seconds: float) -> dict:
    """Per-layer metrics from traced runs, interleaved with untraced ones."""
    plain, traced = [], []
    for _ in _rounds(seconds, MIN_TRACED_RUNS):
        plain.append(session.operation())
        traced.append(session.operation(traced=True))
    runs = [tracer.layer_metrics(op.trace, op.steps, op.csv_rows) for op in traced]
    for i, (op, values) in enumerate(zip(traced, runs), start=1):
        problems = [f"{k} = {values[k]!r}, first traced run {runs[0][k]!r}"
                    for k in tracer.EXACT_METRICS if values[k] != runs[0][k]]
        if op.trace["overruns"]:
            problems.append(f"{op.trace['overruns']} spans whose children outlast them")
        session.record(f"traced run {i}", problems)
    print(f"samples: {len(traced)} traced and {len(plain)} untraced operations")
    metrics = {}
    for name, unit, _ in tracer.per_layer_specs():
        if name == "trace.overhead_frac":
            value = (statistics.median(op.wall_s for op in traced)
                     / statistics.median(op.wall_s for op in plain) - 1.0)
        else:
            value = statistics.median(run[name] for run in runs)
        metrics[name] = _metric(value, unit)
    return metrics


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = wl.WORKLOADS[name]
    env = {
        "workload": name,
        "seed": seed if isinstance(workload, wl.RunCell) else "none (check_all takes no seed)",
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "cpu": _cpu_model(),
        "loadavg_start": os.getloadavg(),
        "limits": MEASUREMENT_LIMITS,
    }
    session = Session(workload, seed)
    metrics = (measure_layers if trace else measure)(session, seconds)
    env["loadavg_end"] = os.getloadavg()
    print("environment: " + json.dumps(env))
    for problem in session.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    return {"correct": session.failed == 0, "attempted": session.attempted,
            "failed": session.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lyapint", "cli.py")):
        print(f"no lyapint sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for metric, entry in results[name]["metrics"].items():
            print(f"{name} {metric} = {entry['value']:.6g} {entry['unit']}")
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": e for n, r in results.items()
                        for m, e in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
